package serve

// Sharded-server equivalence suite: a `NewSharded` router over a split
// scheme must answer every request — results, status codes and error
// envelopes — byte-identically to a monolithic `New` server over the
// same scheme, across the generator matrix, for every endpoint. Plus
// eviction-under-budget behavior, per-shard /v1/stats counters, and a
// -race hammer of concurrent requests against a budget smaller than the
// working set.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ftrouting"
	"ftrouting/serve/api"
)

// shardMatrixGraph is the serve-side multi-component workhorse: three
// components plus an isolated vertex, weighted.
func shardMatrixGraph() *ftrouting.Graph {
	g := ftrouting.NewGraph(24)
	for i := int32(0); i < 5; i++ {
		for j := i + 1; j < 6; j++ {
			g.MustAddEdge(i, j, 1)
		}
	}
	for i := int32(6); i < 13; i++ {
		g.MustAddEdge(i, i+1, int64(1+i%4))
	}
	for i := int32(14); i < 22; i++ {
		g.MustAddEdge(i, i+1, 2)
	}
	g.MustAddEdge(14, 22, 2)
	return g
}

// startSharded splits a scheme into a fresh temp dir and serves its
// manifest.
func startSharded(t *testing.T, scheme any, sopts ftrouting.ShardOptions, opts Options) *httptest.Server {
	t.Helper()
	dir := t.TempDir()
	var err error
	switch v := scheme.(type) {
	case *ftrouting.ConnLabels:
		_, err = ftrouting.SaveShardedConn(dir, v, sopts)
	case *ftrouting.DistLabels:
		_, err = ftrouting.SaveShardedDist(dir, v, sopts)
	case *ftrouting.Router:
		_, err = ftrouting.SaveShardedRouter(dir, v, sopts)
	default:
		t.Fatalf("unsupported scheme %T", scheme)
	}
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ftrouting.LoadManifest(dir + "/" + ftrouting.ManifestFileName)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSharded(loaded, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

// shardRequests is the request mix each equivalence run replays against
// both servers: valid batches (in-shard, cross-component, duplicates),
// every validation error class, and malformed bodies.
func shardRequests(g *ftrouting.Graph) []string {
	n := g.N()
	pairs := servePairs(n)
	reqs := []string{
		fmt.Sprintf(`{"pairs":%s}`, jsonPairs(pairs)),
		fmt.Sprintf(`{"pairs":%s,"faults":[0,1,0]}`, jsonPairs(pairs)),
		fmt.Sprintf(`{"pairs":%s,"faults":[2,1]}`, jsonPairs(pairs[:4])),
		`{"pairs":[]}`,
		fmt.Sprintf(`{"pairs":[[0,1],[%d,0],[2,3]]}`, n+7), // vertex error mid-batch
		fmt.Sprintf(`{"pairs":[[0,1]],"faults":[%d]}`, g.M()+3),
		`{"pairs":[[0,1]],"faults":[0,1,2,3,4,5,6,7,8]}`, // may exceed f
		`{"pairs":[[0,`, // malformed JSON
	}
	return reqs
}

// assertSameResponses replays one request against both servers and
// requires byte-identical status and body.
func assertSameResponses(t *testing.T, mono, sharded *httptest.Server, endpoint string, reqs []string) {
	t.Helper()
	for ri, raw := range reqs {
		ms, mb := postRaw(t, mono.URL+endpoint, raw)
		ss, sb := postRaw(t, sharded.URL+endpoint, raw)
		if ms != ss {
			t.Fatalf("request %d: status %d (mono) != %d (sharded)\nbody mono:  %s\nbody shard: %s", ri, ms, ss, mb, sb)
		}
		if !bytes.Equal(mb, sb) {
			t.Fatalf("request %d: bodies diverge\nmono:  %s\nshard: %s", ri, mb, sb)
		}
	}
}

// postRaw posts a raw string body.
func postRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := doPost(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.status, resp.body
}

type rawResponse struct {
	status int
	body   []byte
}

// doPost posts a raw string body and collects status plus body.
func doPost(url, body string) (*rawResponse, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &rawResponse{status: resp.StatusCode, body: data}, nil
}

func TestServeShardedConnectedEquivalence(t *testing.T) {
	mats := connMatrix()
	mats["multicomp"] = shardMatrixGraph()
	for name, g := range mats {
		for _, scheme := range []ftrouting.ConnSchemeKind{ftrouting.CutBased, ftrouting.SketchBased} {
			t.Run(fmt.Sprintf("%s/scheme%d", name, scheme), func(t *testing.T) {
				labels, err := ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{
					Scheme: scheme, MaxFaults: 3, Seed: 11})
				if err != nil {
					t.Fatal(err)
				}
				mono := startServer(t, labels, Options{})
				sharded := startSharded(t, labels, ftrouting.ShardOptions{}, Options{})
				assertSameResponses(t, mono, sharded, "/v1/connected", shardRequests(g))
			})
		}
	}
}

func TestServeShardedEstimateEquivalence(t *testing.T) {
	mats := distMatrix()
	mats["multicomp"] = shardMatrixGraph()
	for name, g := range mats {
		t.Run(name, func(t *testing.T) {
			labels, err := ftrouting.BuildDistanceLabels(g, 3, 2, 11)
			if err != nil {
				t.Fatal(err)
			}
			mono := startServer(t, labels, Options{})
			sharded := startSharded(t, labels, ftrouting.ShardOptions{Shards: 2}, Options{})
			assertSameResponses(t, mono, sharded, "/v1/estimate", shardRequests(g))
		})
	}
}

func TestServeShardedRouteEquivalence(t *testing.T) {
	mats := map[string]*ftrouting.Graph{
		"random":    ftrouting.RandomConnected(14, 21, 3),
		"multicomp": shardMatrixGraph(),
	}
	for name, g := range mats {
		t.Run(name, func(t *testing.T) {
			router, err := ftrouting.NewRouter(g, 3, 2, ftrouting.RouterOptions{Seed: 11, Balanced: true})
			if err != nil {
				t.Fatal(err)
			}
			mono := startServer(t, router, Options{})
			sharded := startSharded(t, router, ftrouting.ShardOptions{}, Options{})
			for _, endpoint := range []string{"/v1/route", "/v1/route-forbidden"} {
				assertSameResponses(t, mono, sharded, endpoint, shardRequests(g))
			}
		})
	}
}

// TestServeShardedEviction drives a budget that fits one shard at a time
// and checks shards churn (loads exceed the shard count), answers stay
// correct, and /v1/stats exposes the per-shard counters.
func TestServeShardedEviction(t *testing.T) {
	g := shardMatrixGraph()
	labels, err := ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	m, err := ftrouting.SaveShardedConn(dir, labels, ftrouting.ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumShards() < 3 {
		t.Fatalf("fixture needs >= 3 shards, got %d", m.NumShards())
	}
	// Budget of one byte: every release leaves at most the pinned shards,
	// so alternating components must reload each time.
	s, err := NewSharded(m, Options{ShardBudgetBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	reqs := []string{
		`{"pairs":[[0,5]]}`,   // component of shard A
		`{"pairs":[[6,13]]}`,  // component of shard B
		`{"pairs":[[0,5]]}`,   // back to A: must reload
		`{"pairs":[[14,22]]}`, // component C
	}
	for ri, raw := range reqs {
		status, body := postRaw(t, ts.URL+"/v1/connected", raw)
		if status != 200 {
			t.Fatalf("request %d: status %d: %s", ri, status, body)
		}
		var cr api.ConnectedResponse
		if err := json.Unmarshal(body, &cr); err != nil || len(cr.Results) != 1 || !cr.Results[0] {
			t.Fatalf("request %d: bad answer %s (err %v)", ri, body, err)
		}
	}
	stats := s.Stats()
	if stats.Shards == nil {
		t.Fatal("sharded stats missing shards block")
	}
	sh := *stats.Shards
	if sh.Loads < 4 {
		t.Fatalf("loads = %d, want >= 4 (budget forces reloads)", sh.Loads)
	}
	if sh.Evictions < 3 {
		t.Fatalf("evictions = %d, want >= 3", sh.Evictions)
	}
	if sh.TotalShards != m.NumShards() || len(sh.Shards) != m.NumShards() {
		t.Fatalf("stats cover %d/%d of %d shards", sh.TotalShards, len(sh.Shards), m.NumShards())
	}
	var totalLoads, totalEvictions uint64
	var residentBytes int64
	for _, row := range sh.Shards {
		totalLoads += row.Loads
		totalEvictions += row.Evictions
		if row.Resident {
			residentBytes += row.Bytes
		}
	}
	if totalLoads != sh.Loads || totalEvictions != sh.Evictions {
		t.Fatalf("per-shard counters (%d loads, %d evictions) disagree with totals (%d, %d)",
			totalLoads, totalEvictions, sh.Loads, sh.Evictions)
	}
	if residentBytes != sh.ResidentBytes {
		t.Fatalf("resident bytes %d != sum of resident rows %d", sh.ResidentBytes, residentBytes)
	}
	// The context cache aggregate must reflect the lookups (one per
	// non-empty request), surviving evictions.
	if got := stats.Cache.Hits + stats.Cache.Misses; got != uint64(len(reqs)) {
		t.Fatalf("aggregate context lookups %d, want %d", got, len(reqs))
	}
	// Per-row context counters must reconcile with the aggregate block.
	var ctxHits, ctxMisses, ctxEvicted uint64
	for _, row := range sh.Shards {
		ctxHits += row.ContextHits
		ctxMisses += row.ContextMisses
		ctxEvicted += row.ContextEvictions
	}
	if ctxHits != stats.Cache.Hits || ctxMisses != stats.Cache.Misses || ctxEvicted != stats.Cache.Evictions {
		t.Fatalf("per-shard context counters (%d/%d/%d) disagree with aggregate (%d/%d/%d)",
			ctxHits, ctxMisses, ctxEvicted, stats.Cache.Hits, stats.Cache.Misses, stats.Cache.Evictions)
	}
}

// TestServeShardedContextEvictionStats drives the context LRU itself
// into eviction (capacity 1, alternating fault sets against one
// resident shard), then evicts the shard (folding its counters into the
// persistent per-shard row) and checks the per-row context_evictions
// column reconciles with the aggregate cache block — before the fix the
// rows silently dropped eviction counts the aggregate included.
func TestServeShardedContextEvictionStats(t *testing.T) {
	g := shardMatrixGraph()
	labels, err := ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	m, err := ftrouting.SaveShardedConn(dir, labels, ftrouting.ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Budget of exactly the largest shard: any one shard stays resident
	// while hammered, and touching a second always evicts the first
	// (positive sizes sum past the max), folding its context counters.
	var budget int64
	for id := 0; id < m.NumShards(); id++ {
		if b := m.ShardBytes(id); b > budget {
			budget = b
		}
	}
	s, err := NewSharded(m, Options{ShardBudgetBytes: budget, ContextCacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	reqs := []string{
		// One component, capacity-1 context LRU: repeat hits, each fault-set
		// flip misses and evicts the previous context.
		`{"pairs":[[0,5]]}`,              // miss
		`{"pairs":[[0,5]]}`,              // hit
		`{"pairs":[[0,5]],"faults":[0]}`, // miss, evicts the fault-free context
		`{"pairs":[[0,5]]}`,              // miss, evicts again
		// A different component: the first shard leaves residency and its
		// context counters (including the evictions) fold into its row.
		`{"pairs":[[6,13]]}`,
	}
	for ri, raw := range reqs {
		status, body := postRaw(t, ts.URL+"/v1/connected", raw)
		if status != 200 {
			t.Fatalf("request %d: status %d: %s", ri, status, body)
		}
	}
	stats := s.Stats()
	if stats.Shards == nil {
		t.Fatal("sharded stats missing shards block")
	}
	if stats.Cache.Hits != 1 || stats.Cache.Misses != 4 {
		t.Fatalf("aggregate hits/misses = %d/%d, want 1/4", stats.Cache.Hits, stats.Cache.Misses)
	}
	if stats.Cache.Evictions != 2 {
		t.Fatalf("aggregate context evictions = %d, want 2", stats.Cache.Evictions)
	}
	var ctxHits, ctxMisses, ctxEvicted uint64
	for _, row := range stats.Shards.Shards {
		ctxHits += row.ContextHits
		ctxMisses += row.ContextMisses
		ctxEvicted += row.ContextEvictions
	}
	if ctxHits != stats.Cache.Hits || ctxMisses != stats.Cache.Misses || ctxEvicted != stats.Cache.Evictions {
		t.Fatalf("per-shard context counters (%d/%d/%d) disagree with aggregate (%d/%d/%d)",
			ctxHits, ctxMisses, ctxEvicted, stats.Cache.Hits, stats.Cache.Misses, stats.Cache.Evictions)
	}
}

// TestServeShardedRace hammers a sharded server from GOMAXPROCS
// goroutines with a budget below the working set (constant load/evict
// churn) and verifies under -race that every answer matches the
// monolithic truth.
func TestServeShardedRace(t *testing.T) {
	g := shardMatrixGraph()
	labels, err := ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Truth per component pair set.
	queries := []string{
		`{"pairs":[[0,5],[1,3]],"faults":[0,2]}`,
		`{"pairs":[[6,13],[7,9]],"faults":[15]}`,
		`{"pairs":[[14,22],[15,16]]}`,
		`{"pairs":[[0,23],[5,14]]}`, // cross-component
	}
	mono := startServer(t, labels, Options{})
	truth := make([][]byte, len(queries))
	for i, q := range queries {
		status, body := postRaw(t, mono.URL+"/v1/connected", q)
		if status != 200 {
			t.Fatalf("truth query %d: status %d", i, status)
		}
		truth[i] = body
	}
	sharded := startSharded(t, labels, ftrouting.ShardOptions{}, Options{ShardBudgetBytes: 1})
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				qi := (w + i) % len(queries)
				resp, err := doPost(sharded.URL+"/v1/connected", queries[qi])
				if err != nil {
					errs <- err
					return
				}
				if resp.status != 200 || !bytes.Equal(resp.body, truth[qi]) {
					errs <- fmt.Errorf("worker %d: query %d got %d %s, want %s", w, qi, resp.status, resp.body, truth[qi])
					return
				}
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
