package serve

// BenchmarkServe* measures served batch queries over loopback HTTP at the
// two extremes of the cache-hit spectrum: Warm repeats one fault set
// (after the first request every lookup hits, so requests skip fault
// preparation), Cold changes the fault set every request (every lookup
// misses and pays decoder Steps 1–3). The gap is the amortization the
// prepared-context LRU buys; the bench-compare CI gate watches these.

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"

	"ftrouting"
	"ftrouting/internal/obs"
	"ftrouting/serve/api"
)

// benchPairsPerRequest keeps requests small enough that fault-set
// preparation dominates the cold path, the serving regime the cache
// exists for.
const benchPairsPerRequest = 16

var benchSchemes struct {
	once sync.Once
	conn *ftrouting.ConnLabels
	dist *ftrouting.DistLabels
	g    *ftrouting.Graph
	dg   *ftrouting.Graph
	err  error
}

func benchSetup() error {
	benchSchemes.once.Do(func() {
		benchSchemes.g = ftrouting.RandomConnected(256, 420, 1)
		benchSchemes.conn, benchSchemes.err = ftrouting.BuildConnectivityLabels(
			benchSchemes.g, ftrouting.ConnOptions{Seed: 1})
		if benchSchemes.err != nil {
			return
		}
		benchSchemes.dg = ftrouting.WithRandomWeights(ftrouting.RandomConnected(48, 80, 2), 4, 3)
		benchSchemes.dist, benchSchemes.err = ftrouting.BuildDistanceLabels(benchSchemes.dg, 2, 2, 1)
	})
	return benchSchemes.err
}

// benchServe posts b.N requests to one endpoint, drawing the request's
// fault set from faultsFor(i), and reports query throughput.
func benchServe(b *testing.B, scheme any, endpoint string, g *ftrouting.Graph, faultsFor func(i int) []ftrouting.EdgeID) {
	benchServeOpts(b, scheme, endpoint, g, Options{}, faultsFor)
}

// benchServeOpts is benchServe with explicit server options, so the
// instrumented variants measure the same workload.
func benchServeOpts(b *testing.B, scheme any, endpoint string, g *ftrouting.Graph, opts Options, faultsFor func(i int) []ftrouting.EdgeID) {
	s, err := New(scheme, opts)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := ts.Client()

	pairs := make([][2]int32, benchPairsPerRequest)
	n := g.N()
	for i := range pairs {
		pairs[i] = [2]int32{int32((i * 5) % n), int32((i*11 + n/2) % n)}
	}
	url := ts.URL + "/v1/" + endpoint

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := json.Marshal(api.QueryRequest{Pairs: pairs, Faults: faultsFor(i)})
		if err != nil {
			b.Fatal(err)
		}
		resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			body := new(bytes.Buffer)
			body.ReadFrom(resp.Body)
			resp.Body.Close()
			b.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		resp.Body.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*benchPairsPerRequest)/b.Elapsed().Seconds(), "queries/s")
	if st := s.Stats().Cache; b.N > 1 && st.Hits+st.Misses != uint64(b.N) {
		b.Fatalf("cache lookups %d != %d requests", st.Hits+st.Misses, b.N)
	}
}

func BenchmarkServeConnectedWarm(b *testing.B) {
	if err := benchSetup(); err != nil {
		b.Fatal(err)
	}
	faults := ftrouting.RandomFaults(benchSchemes.g, 6, 5)
	benchServe(b, benchSchemes.conn, "connected", benchSchemes.g,
		func(int) []ftrouting.EdgeID { return faults })
}

// BenchmarkServeConnectedInstrumented is the warm workload with the full
// observability layer live (metrics registry + discarded structured
// log); E19 compares it against the uninstrumented warm number.
func BenchmarkServeConnectedInstrumented(b *testing.B) {
	if err := benchSetup(); err != nil {
		b.Fatal(err)
	}
	faults := ftrouting.RandomFaults(benchSchemes.g, 6, 5)
	opts := Options{Obs: Observability{
		Metrics:   obs.NewRegistry(),
		AccessLog: slog.New(slog.NewJSONHandler(io.Discard, nil)),
	}}
	benchServeOpts(b, benchSchemes.conn, "connected", benchSchemes.g, opts,
		func(int) []ftrouting.EdgeID { return faults })
}

func BenchmarkServeConnectedCold(b *testing.B) {
	if err := benchSetup(); err != nil {
		b.Fatal(err)
	}
	benchServe(b, benchSchemes.conn, "connected", benchSchemes.g,
		func(i int) []ftrouting.EdgeID {
			return ftrouting.RandomFaults(benchSchemes.g, 6, uint64(1000+i))
		})
}

func BenchmarkServeEstimateWarm(b *testing.B) {
	if err := benchSetup(); err != nil {
		b.Fatal(err)
	}
	faults := ftrouting.RandomFaults(benchSchemes.dg, 2, 5)
	benchServe(b, benchSchemes.dist, "estimate", benchSchemes.dg,
		func(int) []ftrouting.EdgeID { return faults })
}

func BenchmarkServeEstimateCold(b *testing.B) {
	if err := benchSetup(); err != nil {
		b.Fatal(err)
	}
	benchServe(b, benchSchemes.dist, "estimate", benchSchemes.dg,
		func(i int) []ftrouting.EdgeID {
			return ftrouting.RandomFaults(benchSchemes.dg, 2, uint64(1000+i))
		})
}

// BenchmarkServeStats measures the monitoring endpoint (lock-free counter
// snapshot + small JSON body), decoding each body so a malformed stats
// response fails the benchmark instead of inflating its throughput.
func BenchmarkServeStats(b *testing.B) {
	if err := benchSetup(); err != nil {
		b.Fatal(err)
	}
	s, err := New(benchSchemes.conn, Options{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := ts.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(ts.URL + "/v1/stats")
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		var stats api.StatsResponse
		err = json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if stats.Kind != "conn" || stats.Endpoints["stats"].Requests != uint64(i+1) {
			b.Fatalf("stats body off: kind %q, stats requests %d at i=%d",
				stats.Kind, stats.Endpoints["stats"].Requests, i)
		}
	}
}

// Sharded-server benchmarks (bench-compare gate: the Serve filter
// matches these too). Warm measures the shard router's split/merge
// overhead once shards and contexts are resident — the E18 claim that
// warm sharded throughput stays within 10% of monolithic. ColdShards
// adds the full residency churn: a one-byte budget evicts every shard
// between requests, so each request pays shard decode + label rebuild.
var benchSharded struct {
	once sync.Once
	m    *ftrouting.Manifest
	err  error
}

func benchShardedSetup() error {
	if err := benchSetup(); err != nil {
		return err
	}
	benchSharded.once.Do(func() {
		g := ftrouting.Islands(6, 64, 100, 1)
		conn, err := ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{Seed: 1})
		if err != nil {
			benchSharded.err = err
			return
		}
		dir, err := os.MkdirTemp("", "benchshards")
		if err != nil {
			benchSharded.err = err
			return
		}
		benchSharded.m, benchSharded.err = ftrouting.SaveShardedConn(dir, conn, ftrouting.ShardOptions{})
	})
	return benchSharded.err
}

// benchServeSharded posts b.N island-spanning requests to a sharded
// server with the given shard budget.
func benchServeSharded(b *testing.B, budget int64, faultsFor func(i int) []ftrouting.EdgeID) {
	if err := benchShardedSetup(); err != nil {
		b.Fatal(err)
	}
	m := benchSharded.m
	s, err := NewSharded(m, Options{ShardBudgetBytes: budget})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := ts.Client()
	g := m.Graph()
	islandN := g.N() / m.NumComponents()
	pairs := make([][2]int32, benchPairsPerRequest)
	for i := range pairs {
		island := int32(i % m.NumComponents())
		pairs[i] = [2]int32{
			island*int32(islandN) + int32((i*5)%islandN),
			island*int32(islandN) + int32((i*11+islandN/2)%islandN),
		}
	}
	url := ts.URL + "/v1/connected"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := json.Marshal(api.QueryRequest{Pairs: pairs, Faults: faultsFor(i)})
		if err != nil {
			b.Fatal(err)
		}
		resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			body := new(bytes.Buffer)
			body.ReadFrom(resp.Body)
			resp.Body.Close()
			b.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		resp.Body.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*benchPairsPerRequest)/b.Elapsed().Seconds(), "queries/s")
}

func BenchmarkServeShardedConnectedWarm(b *testing.B) {
	if err := benchShardedSetup(); err != nil {
		b.Fatal(err)
	}
	faults := ftrouting.RandomFaults(benchSharded.m.Graph(), 6, 5)
	benchServeSharded(b, DefaultShardBudgetBytes, func(int) []ftrouting.EdgeID { return faults })
}

func BenchmarkServeShardedConnectedColdShards(b *testing.B) {
	if err := benchShardedSetup(); err != nil {
		b.Fatal(err)
	}
	faults := ftrouting.RandomFaults(benchSharded.m.Graph(), 6, 5)
	benchServeSharded(b, 1, func(int) []ftrouting.EdgeID { return faults })
}
