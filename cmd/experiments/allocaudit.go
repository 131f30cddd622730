package main

// E21: warm-path allocation audit. After PrepareFaults, the per-query
// eval stage of every decoder — connectivity sketch decode, distance
// estimate, forbidden-set route walk — runs on pooled scratch and must
// not touch the heap. This experiment measures allocations per warm
// query (testing.AllocsPerRun, the same primitive as the CI gates) and
// warm single-goroutine throughput of each stage. The serve-level
// before/after numbers (loopback HTTP, 16 pairs/request) are recorded in
// BENCH_E21.json.

import (
	"fmt"
	"testing"
	"time"

	"ftrouting"
	"ftrouting/internal/experiments"
	"ftrouting/internal/route"
)

// e21Pairs is the warm working set each stage cycles through; the qps
// loop runs it until enough wall-clock has elapsed for a stable rate.
const e21Pairs = 64

func allocAudit(seed uint64) *experiments.Table {
	t := &experiments.Table{
		ID:     "E21",
		Title:  "warm-path allocation audit: allocs/query and warm q/s per eval stage",
		Paper:  "hub-labeling-style flat query loop: prepared fault contexts + pooled decode scratch",
		Header: []string{"stage", "graph", "allocs/query", "warm q/s"},
	}
	fail := func(err error) *experiments.Table {
		t.Notes = append(t.Notes, "ERROR: "+err.Error())
		return t
	}

	measure := func(stage, graphDesc string, n int, query func(s, t int32) error) error {
		pair := func(i int) (int32, int32) {
			return int32((i * 5) % n), int32((i*11 + n/2) % n)
		}
		// One filling pass over the working set: prepared contexts build
		// each instance's decoder state on the first query that reaches it.
		for j := 0; j < e21Pairs; j++ {
			if err := query(pair(j)); err != nil {
				return err
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			s, d := pair(i % e21Pairs)
			i++
			if err := query(s, d); err != nil {
				panic(err)
			}
		})
		start := time.Now()
		queries := 0
		for time.Since(start) < 200*time.Millisecond {
			for j := 0; j < e21Pairs; j++ {
				s, d := pair(j)
				if err := query(s, d); err != nil {
					return err
				}
			}
			queries += e21Pairs
		}
		qps := float64(queries) / time.Since(start).Seconds()
		t.AddRow(stage, graphDesc, fmt.Sprintf("%.1f", allocs), fmt.Sprintf("%.0f", qps))
		return nil
	}

	// Connectivity: prepared sketch decode.
	g := ftrouting.RandomConnected(512, 1024, seed)
	conn, err := ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{Seed: seed})
	if err != nil {
		return fail(err)
	}
	connCtx, err := conn.PrepareFaults(ftrouting.RandomFaults(g, 6, seed+1))
	if err != nil {
		return fail(err)
	}
	err = measure("conn sketch decode", "n=512 m=1024 |F|=6", g.N(), func(s, d int32) error {
		_, err := connCtx.Connected(s, d)
		return err
	})
	if err != nil {
		return fail(err)
	}

	// Distance: prepared estimate over cached vertex labels.
	dg := ftrouting.WithRandomWeights(ftrouting.RandomConnected(128, 220, seed+2), 4, seed+3)
	dist, err := ftrouting.BuildDistanceLabels(dg, 2, 2, seed)
	if err != nil {
		return fail(err)
	}
	distCtx, err := dist.PrepareFaults(ftrouting.RandomFaults(dg, 2, seed+4))
	if err != nil {
		return fail(err)
	}
	err = measure("dist estimate", "n=128 m=220 f=2 k=2", dg.N(), func(s, d int32) error {
		_, err := distCtx.Estimate(s, d)
		return err
	})
	if err != nil {
		return fail(err)
	}

	// Routing: prepared forbidden-set walk into a reused result.
	rg := ftrouting.WithRandomWeights(ftrouting.RandomConnected(96, 160, seed+5), 5, seed+6)
	router, err := route.Build(rg, 2, 2, route.Options{Seed: seed, Balanced: true})
	if err != nil {
		return fail(err)
	}
	fctx := router.PrepareForbidden(ftrouting.RandomFaults(rg, 2, seed+7))
	var res route.Result
	err = measure("route forbidden walk", "n=96 m=160 f=2 k=2", rg.N(), func(s, d int32) error {
		return fctx.RouteInto(s, d, &res)
	})
	if err != nil {
		return fail(err)
	}

	t.Notes = append(t.Notes,
		"allocs/query from testing.AllocsPerRun over a warm 64-pair working set; 0.0 = the eval stage never touches the heap",
		"q/s is one goroutine on prepared contexts (no HTTP, no batching); serve-level before/after in BENCH_E21.json",
		"remaining serve-path allocations are per-request HTTP + JSON transport, not per-query eval work")
	return t
}
