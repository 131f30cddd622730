package main

// E17: served query throughput vs. cache hit rate and workers. The serve
// daemon keeps prepared fault contexts in an LRU keyed by the canonical
// fault set, so a request whose fault set is already warm skips decoder
// Steps 1–3 and pays only pair evaluation plus HTTP overhead. This table
// drives a loopback server at three cache-hit regimes (every request a
// new fault set, alternating, one repeated fault set) and two per-request
// worker counts, and reports served queries/sec — the quantitative claim
// behind the README "Serving" section: repeated-fault-set throughput is
// the amortization the cache buys (≥ 2x the cold path).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"ftrouting"
	"ftrouting/internal/experiments"
	"ftrouting/serve"
	"ftrouting/serve/api"
)

// e17 request shape: small batches make fault preparation the dominant
// per-request cost — the regime the context cache exists for.
const (
	e17Requests = 30
	e17Reps     = 3
)

// e17Client posts one batch and fails on any non-200.
func e17Post(client *http.Client, url string, req api.QueryRequest) error {
	raw, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		return fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, body.String())
	}
	return nil
}

func serveThroughput(seed uint64) *experiments.Table {
	t := &experiments.Table{
		ID:     "E17",
		Title:  "served query throughput vs cache hit rate and workers",
		Paper:  "serving tier of the build-once deployment: warm fault contexts skip decoder Steps 1-3",
		Header: []string{"scheme", "pairs/req", "par", "hit rate", "served q/s", "vs cold"},
	}
	fail := func(err error) *experiments.Table {
		t.Notes = append(t.Notes, "ERROR: "+err.Error())
		return t
	}

	g := ftrouting.RandomConnected(512, 1024, seed)
	conn, err := ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{Seed: seed})
	if err != nil {
		return fail(err)
	}
	dg := ftrouting.WithRandomWeights(ftrouting.RandomConnected(128, 220, seed+2), 4, seed+3)
	dist, err := ftrouting.BuildDistanceLabels(dg, 2, 2, seed)
	if err != nil {
		return fail(err)
	}

	type schemeCase struct {
		name     string
		scheme   any
		g        *ftrouting.Graph
		endpoint string
		nFaults  int
		pairsPer int
	}
	// The connectivity case is a link-failure storm probed a few pairs at
	// a time (the sketch labels are f-independent, so |F| may far exceed
	// typical bounds): fault-set preparation dominates each request, the
	// split the cache amortizes. The distance case serves 16-pair batches
	// against a small fault set; its per-scale preparation is heavy while
	// per-pair decoding stays cheap.
	cases := []schemeCase{
		{"conn/sketch |F|=128", conn, g, "connected", 128, 4},
		{"dist(f=2,k=2)", dist, dg, "estimate", 2, 16},
	}
	// Hit-rate regimes: whether request i names a fresh fault set or the
	// repeated one. "cold" always draws fresh, "50%" alternates, "warm"
	// repeats one set.
	regimes := []struct {
		name  string
		fresh func(i int) bool
	}{
		{"0% (cold)", func(i int) bool { return true }},
		{"50%", func(i int) bool { return i%2 == 1 }},
		{"100% (warm)", func(i int) bool { return false }},
	}

	for _, sc := range cases {
		pairs := make([][2]int32, sc.pairsPer)
		n := sc.g.N()
		for i := range pairs {
			pairs[i] = [2]int32{int32((i * 5) % n), int32((i*11 + n/2) % n)}
		}
		// One repeated fault set plus a pool of fresh ones per case; every
		// regime gets its own server, so pool reuse across regimes still
		// means a cold cache.
		repeated := ftrouting.RandomFaults(sc.g, sc.nFaults, seed+9)
		fresh := make([][]ftrouting.EdgeID, e17Requests*e17Reps+1)
		for i := range fresh {
			fresh[i] = ftrouting.RandomFaults(sc.g, sc.nFaults, seed+10+uint64(i))
		}
		for _, par := range []int{1, 0} {
			parName := "1"
			if par == 0 {
				parName = fmt.Sprintf("%d", runtime.GOMAXPROCS(0))
			}
			var coldQPS float64
			for _, regime := range regimes {
				srv, err := serve.New(sc.scheme, serve.Options{Parallelism: par})
				if err != nil {
					return fail(err)
				}
				ts := httptest.NewServer(srv)
				url := ts.URL + "/v1/" + sc.endpoint
				client := ts.Client()
				// Warm regimes keep their repeated context across reps —
				// that persistence is exactly what is being measured — so
				// prime it once outside the clock.
				if err := e17Post(client, url, api.QueryRequest{Pairs: pairs, Faults: repeated}); err != nil {
					ts.Close()
					return fail(err)
				}
				best := time.Duration(1<<63 - 1)
				freshAt := 0
				for rep := 0; rep < e17Reps; rep++ {
					start := time.Now()
					for i := 0; i < e17Requests; i++ {
						faults := repeated
						if regime.fresh(i) {
							faults = fresh[freshAt]
							freshAt++
						}
						if err := e17Post(client, url, api.QueryRequest{Pairs: pairs, Faults: faults}); err != nil {
							ts.Close()
							return fail(err)
						}
					}
					if d := time.Since(start); d < best {
						best = d
					}
				}
				ts.Close()
				qps := float64(e17Requests*sc.pairsPer) / best.Seconds()
				speedup := "1.0x"
				if coldQPS == 0 {
					coldQPS = qps
				} else {
					speedup = fmt.Sprintf("%.1fx", qps/coldQPS)
				}
				t.AddRow(sc.name, fmt.Sprintf("%d", sc.pairsPer), parName, regime.name,
					fmt.Sprintf("%.0f", qps), speedup)
			}
		}
	}
	t.Notes = append(t.Notes,
		"loopback HTTP; cold = fresh fault set per request (every lookup misses), warm = one repeated fault set (every lookup hits)",
		"warm requests skip fault-set preparation (decoder Steps 1-3) entirely; the gap is the LRU's amortization",
		fmt.Sprintf("measured on GOMAXPROCS=%d; par = workers evaluating each request's pairs", runtime.GOMAXPROCS(0)))
	return t
}
