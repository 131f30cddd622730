package main

// E19: observability overhead on the warm serving path. The metrics
// layer is two atomic adds per histogram observation and the access log
// is one slog line per request, so the instrumented daemon should serve
// warm queries within 5% of the uninstrumented one — the budget that
// justifies shipping -metrics=on as the default. This table drives the
// same warm loopback workload against three configurations (bare,
// metrics only, metrics + JSON access log) and gates on the fully
// instrumented row.

import (
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"runtime"
	"time"

	"ftrouting"
	"ftrouting/internal/experiments"
	"ftrouting/internal/obs"
	"ftrouting/serve"
	"ftrouting/serve/api"
)

const (
	e19Requests  = 40
	e19Reps      = 5
	e19PairsPer  = 16
	e19Tolerance = 0.05
)

func obsCost(seed uint64) *experiments.Table {
	t := &experiments.Table{
		ID:     "E19",
		Title:  "observability overhead: instrumented vs bare warm serving",
		Paper:  "serving-tier engineering check: metrics + access log must not tax the query path",
		Header: []string{"config", "warm q/s", "vs bare", "overhead"},
	}
	fail := func(err error) *experiments.Table {
		t.Notes = append(t.Notes, "ERROR: "+err.Error())
		return t
	}

	g := ftrouting.RandomConnected(256, 420, seed)
	conn, err := ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{Seed: seed})
	if err != nil {
		return fail(err)
	}
	pairs := make([][2]int32, e19PairsPer)
	n := g.N()
	for i := range pairs {
		pairs[i] = [2]int32{int32((i * 5) % n), int32((i*11 + n/2) % n)}
	}
	faults := ftrouting.RandomFaults(g, 6, seed+9)

	measure := func(opts serve.Options) (float64, error) {
		srv, err := serve.New(conn, opts)
		if err != nil {
			return 0, err
		}
		ts := httptest.NewServer(srv)
		defer ts.Close()
		url := ts.URL + "/v1/connected"
		client := ts.Client()
		req := api.QueryRequest{Pairs: pairs, Faults: faults}
		// Prime the fault context outside the clock; every timed request
		// hits the prepared-context cache.
		if err := postQuery(client, url, req); err != nil {
			return 0, err
		}
		runtime.GC()
		best := time.Duration(1<<63 - 1)
		for rep := 0; rep < e19Reps; rep++ {
			start := time.Now()
			for i := 0; i < e19Requests; i++ {
				if err := postQuery(client, url, req); err != nil {
					return 0, err
				}
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return float64(e19Requests*e19PairsPer) / best.Seconds(), nil
	}

	configs := []struct {
		name string
		opts serve.Options
	}{
		{"bare (-metrics=off -log-level off)", serve.Options{}},
		{"metrics only", serve.Options{Obs: serve.Observability{Metrics: obs.NewRegistry()}}},
		{"metrics + access log", serve.Options{Obs: serve.Observability{
			Metrics:   obs.NewRegistry(),
			AccessLog: slog.New(slog.NewJSONHandler(io.Discard, nil)),
		}}},
	}
	var bareQPS, instrQPS float64
	for i, c := range configs {
		qps, err := measure(c.opts)
		if err != nil {
			return fail(err)
		}
		if i == 0 {
			bareQPS = qps
			t.AddRow(c.name, fmt.Sprintf("%.0f", qps), "1.00x", "-")
			continue
		}
		instrQPS = qps
		t.AddRow(c.name, fmt.Sprintf("%.0f", qps),
			fmt.Sprintf("%.2fx", qps/bareQPS),
			fmt.Sprintf("%.1f%%", (1-qps/bareQPS)*100))
	}

	overhead := 1 - instrQPS/bareQPS
	verdict := "PASS"
	if overhead > e19Tolerance {
		verdict = "FAIL"
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("check: fully instrumented warm q/s within %.0f%% of bare — overhead %.1f%%: %s",
			e19Tolerance*100, overhead*100, verdict),
		"warm loopback workload of E18: one repeated fault set, every timed request a context-cache hit",
		"access log writes JSON to io.Discard, isolating encoding cost from sink latency")
	return t
}
