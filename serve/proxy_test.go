package serve

// Fan-out proxy equivalence suite: a Proxy over shard-affine replicas
// must answer every request — results, status codes and error envelopes
// — byte-identically to a monolithic server over the same scheme, across
// the generator matrix, at replication factors 1 and 2. Plus placement
// planning, startup verification against foreign replicas, replica-down
// failover (typed upstream-failure envelope, healthy shards keep
// answering, replication 2 survives a death), proxy stacking, and
// fronting monolithic daemons.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"ftrouting"
	"ftrouting/serve/api"
)

// shardScheme splits a scheme into a temp dir and returns the loaded
// manifest.
func shardScheme(t *testing.T, scheme any, sopts ftrouting.ShardOptions) *ftrouting.Manifest {
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
	m, err := ftrouting.LoadManifest(dir + "/" + ftrouting.ManifestFileName)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// startReplicas serves the manifest from n independent sharded servers
// (each with its own caches, as deployed replicas would run).
func startReplicas(t *testing.T, m *ftrouting.Manifest, n int) []*httptest.Server {
	t.Helper()
	out := make([]*httptest.Server, n)
	for i := range out {
		s, err := NewSharded(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = httptest.NewServer(s)
		t.Cleanup(out[i].Close)
	}
	return out
}

// startProxy builds a Proxy over the replicas and serves it.
func startProxy(t *testing.T, m *ftrouting.Manifest, replicas []*httptest.Server, opts ProxyOptions) (*Proxy, *httptest.Server) {
	t.Helper()
	urls := make([]string, len(replicas))
	for i, r := range replicas {
		urls[i] = r.URL
	}
	p, err := NewProxy(context.Background(), m, urls, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p)
	t.Cleanup(ts.Close)
	return p, ts
}

func TestProxyConnectedEquivalence(t *testing.T) {
	mats := connMatrix()
	mats["multicomp"] = shardMatrixGraph()
	for name, g := range mats {
		for _, replication := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/replication%d", name, replication), func(t *testing.T) {
				labels, err := ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{
					Scheme: ftrouting.SketchBased, MaxFaults: 3, Seed: 11})
				if err != nil {
					t.Fatal(err)
				}
				mono := startServer(t, labels, Options{})
				m := shardScheme(t, labels, ftrouting.ShardOptions{})
				_, proxy := startProxy(t, m, startReplicas(t, m, 2), ProxyOptions{Replication: replication})
				assertSameResponses(t, mono, proxy, "/v1/connected", shardRequests(g))
			})
		}
	}
}

func TestProxyEstimateEquivalence(t *testing.T) {
	mats := distMatrix()
	mats["multicomp"] = shardMatrixGraph()
	for name, g := range mats {
		for _, replication := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/replication%d", name, replication), func(t *testing.T) {
				labels, err := ftrouting.BuildDistanceLabels(g, 3, 2, 11)
				if err != nil {
					t.Fatal(err)
				}
				mono := startServer(t, labels, Options{})
				m := shardScheme(t, labels, ftrouting.ShardOptions{Shards: 2})
				_, proxy := startProxy(t, m, startReplicas(t, m, 2), ProxyOptions{Replication: replication})
				assertSameResponses(t, mono, proxy, "/v1/estimate", shardRequests(g))
			})
		}
	}
}

func TestProxyRouteEquivalence(t *testing.T) {
	mats := map[string]*ftrouting.Graph{
		"random":    ftrouting.RandomConnected(14, 21, 3),
		"multicomp": shardMatrixGraph(),
	}
	for name, g := range mats {
		for _, replication := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/replication%d", name, replication), func(t *testing.T) {
				router, err := ftrouting.NewRouter(g, 3, 2, ftrouting.RouterOptions{Seed: 11, Balanced: true})
				if err != nil {
					t.Fatal(err)
				}
				mono := startServer(t, router, Options{})
				m := shardScheme(t, router, ftrouting.ShardOptions{})
				_, proxy := startProxy(t, m, startReplicas(t, m, 2), ProxyOptions{Replication: replication})
				for _, endpoint := range []string{"/v1/route", "/v1/route-forbidden"} {
					assertSameResponses(t, mono, proxy, endpoint, shardRequests(g))
				}
			})
		}
	}
}

// TestProxyFrontsMonolithicReplica proves the digest-bound protocol
// makes tiers interchangeable: a proxy planning over a manifest can fan
// out to replicas holding the WHOLE scheme in memory, because a
// monolithic daemon of the same build reports the same scheme digest and
// answers any sub-batch identically.
func TestProxyFrontsMonolithicReplica(t *testing.T) {
	g := shardMatrixGraph()
	labels, err := ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{MaxFaults: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	mono := startServer(t, labels, Options{})
	m := shardScheme(t, labels, ftrouting.ShardOptions{})
	p, err := NewProxy(context.Background(), m, []string{mono.URL}, ProxyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	proxy := httptest.NewServer(p)
	defer proxy.Close()
	assertSameResponses(t, mono, proxy, "/v1/connected", shardRequests(g))
}

// TestProxyStacks proves proxies front proxies: the same wire protocol
// and digest at every level means a two-tier fan-out answers
// byte-identically to the monolithic daemon too.
func TestProxyStacks(t *testing.T) {
	g := shardMatrixGraph()
	labels, err := ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{MaxFaults: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	mono := startServer(t, labels, Options{})
	m := shardScheme(t, labels, ftrouting.ShardOptions{})
	_, lower := startProxy(t, m, startReplicas(t, m, 2), ProxyOptions{})
	upper, err := NewProxy(context.Background(), m, []string{lower.URL}, ProxyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(upper)
	defer ts.Close()
	assertSameResponses(t, mono, ts, "/v1/connected", shardRequests(g))
}

func TestPlanPlacement(t *testing.T) {
	sizes := []int64{100, 500, 300, 200}
	// Replication 1 over 2 replicas, greedy by decreasing bytes: shard 1
	// (500) -> r0, shard 2 (300) -> r1, shard 3 (200) -> r1 (300 < 500),
	// shard 0 (100) -> the 500/500 tie breaks to r0.
	got := PlanPlacement(sizes, 2, 1)
	want := [][]int{{0}, {0}, {1}, {1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("placement = %v, want %v", got, want)
	}
	// Deterministic: same inputs, same plan.
	if again := PlanPlacement(sizes, 2, 1); !reflect.DeepEqual(again, got) {
		t.Fatalf("placement not deterministic: %v vs %v", again, got)
	}
	// Replication 2 over 3 replicas: every shard on exactly 2 distinct
	// replicas, and the by-bytes load spread stays within one max shard.
	got = PlanPlacement(sizes, 3, 2)
	load := make([]int64, 3)
	for id, reps := range got {
		if len(reps) != 2 || reps[0] == reps[1] {
			t.Fatalf("shard %d assigned %v, want 2 distinct replicas", id, reps)
		}
		for _, r := range reps {
			load[r] += sizes[id]
		}
	}
	minL, maxL := load[0], load[0]
	for _, l := range load[1:] {
		minL, maxL = min(minL, l), max(maxL, l)
	}
	if maxL-minL > 500 {
		t.Fatalf("load spread %v exceeds the largest shard", load)
	}
	// Replication above the replica count clamps; below 1 clamps to 1.
	for _, rep := range []int{0, 5} {
		for id, reps := range PlanPlacement(sizes, 2, rep) {
			wantLen := 1
			if rep == 5 {
				wantLen = 2
			}
			if len(reps) != wantLen {
				t.Fatalf("replication %d: shard %d got %d replicas", rep, id, len(reps))
			}
		}
	}
	// No shards: empty plan.
	if got := PlanPlacement(nil, 3, 1); len(got) != 0 {
		t.Fatalf("empty placement = %v", got)
	}
}

// proxyFixture builds the multicomponent scheme, its manifest and two
// replicas for the failure tests, and returns a vertex inside each
// shard.
func proxyFixture(t *testing.T) (m *ftrouting.Manifest, replicas []*httptest.Server, shardVertex map[int]int32) {
	t.Helper()
	g := shardMatrixGraph()
	// Cut-based: its fault bound is real (sketch labels are unbounded), so
	// the replica-down test can check local fault validation.
	labels, err := ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{
		Scheme: ftrouting.CutBased, MaxFaults: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	m = shardScheme(t, labels, ftrouting.ShardOptions{})
	if m.NumShards() < 3 {
		t.Fatalf("fixture needs >= 3 shards, got %d", m.NumShards())
	}
	shardVertex = make(map[int]int32)
	for v := int32(0); int(v) < g.N(); v++ {
		id := m.ShardOf(v)
		if _, ok := shardVertex[id]; !ok {
			shardVertex[id] = v
		}
	}
	return m, startReplicas(t, m, 2), shardVertex
}

// TestProxyReplicaDown kills one of two replicas at replication 1 and
// checks the typed upstream-failure envelope for its shards while the
// healthy replica's shards keep answering.
func TestProxyReplicaDown(t *testing.T) {
	m, replicas, shardVertex := proxyFixture(t)
	p, ts := startProxy(t, m, replicas, ProxyOptions{Replication: 1})

	// Find one shard on each replica, then kill replica 1.
	placement := p.Placement()
	if len(placement[0]) == 0 || len(placement[1]) == 0 {
		t.Fatalf("placement %v leaves a replica empty", placement)
	}
	aliveShard, deadShard := placement[0][0], placement[1][0]
	replicas[1].Close()

	query := func(shard int) (int, []byte) {
		v := shardVertex[shard]
		return postRaw(t, ts.URL+"/v1/connected", fmt.Sprintf(`{"pairs":[[%d,%d]]}`, v, v))
	}
	// Healthy shard answers.
	status, body := query(aliveShard)
	if status != http.StatusOK {
		t.Fatalf("healthy shard %d: status %d: %s", aliveShard, status, body)
	}
	var cr api.ConnectedResponse
	if err := json.Unmarshal(body, &cr); err != nil || len(cr.Results) != 1 || !cr.Results[0] {
		t.Fatalf("healthy shard %d: bad answer %s (err %v)", aliveShard, body, err)
	}
	// Dead replica's shard reports the typed envelope.
	status, body = query(deadShard)
	expectError(t, status, body, http.StatusBadGateway, api.CodeUpstream, -1)
	// Validation failures still never touch a replica: a fault-bound error
	// over the dead shard's component answers 400, not 502.
	v := shardVertex[deadShard]
	status, body = postRaw(t, ts.URL+"/v1/connected",
		fmt.Sprintf(`{"pairs":[[%d,%d]],"faults":[0,1,2,3,4,5,6,7,8]}`, v, v))
	expectError(t, status, body, http.StatusBadRequest, string(ftrouting.CodeFaultBound), -1)
	// The upstream stats carry the transport failures.
	var failures uint64
	for _, u := range p.Stats().Upstreams {
		failures += u.Failures
	}
	if failures == 0 {
		t.Fatal("stats report no upstream failures after a dead-replica query")
	}
}

// TestProxyReplicationSurvivesDeath proves replication 2 rides out a
// replica death: every shard keeps a live replica, so every batch still
// answers byte-identically to the monolithic daemon.
func TestProxyReplicationSurvivesDeath(t *testing.T) {
	g := shardMatrixGraph()
	labels, err := ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{MaxFaults: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	mono := startServer(t, labels, Options{})
	m := shardScheme(t, labels, ftrouting.ShardOptions{})
	replicas := startReplicas(t, m, 2)
	p, proxy := startProxy(t, m, replicas, ProxyOptions{Replication: 2})
	replicas[0].Close()
	// Twice: round-robin rotation starts some sub-requests at the dead
	// replica, exercising failover both ways.
	for round := 0; round < 2; round++ {
		assertSameResponses(t, mono, proxy, "/v1/connected", shardRequests(g))
	}
	var failures uint64
	for _, u := range p.Stats().Upstreams {
		failures += u.Failures
	}
	if failures == 0 {
		t.Fatal("no failovers recorded; the dead replica was never tried")
	}
}

// TestProxyRejectsForeignReplica proves startup verification: a replica
// serving a different build (digest mismatch), a different kind, or
// nothing at all is rejected before the proxy takes traffic.
func TestProxyRejectsForeignReplica(t *testing.T) {
	g := shardMatrixGraph()
	labels, err := ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{MaxFaults: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	m := shardScheme(t, labels, ftrouting.ShardOptions{})

	// Same kind and graph shape, different seed: only the digest differs.
	foreign, err := ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{MaxFaults: 3, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	foreignTS := startServer(t, foreign, Options{})
	if _, err := NewProxy(context.Background(), m, []string{foreignTS.URL}, ProxyOptions{}); err == nil {
		t.Fatal("proxy accepted a replica with a foreign scheme digest")
	}

	// Different scheme kind.
	dist, err := ftrouting.BuildDistanceLabels(g, 3, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	distTS := startServer(t, dist, Options{})
	if _, err := NewProxy(context.Background(), m, []string{distTS.URL}, ProxyOptions{}); err == nil {
		t.Fatal("proxy accepted a replica of the wrong scheme kind")
	}

	// Unreachable replica.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	if _, err := NewProxy(context.Background(), m, []string{dead.URL}, ProxyOptions{}); err == nil {
		t.Fatal("proxy accepted an unreachable replica")
	}

	// Replication factor beyond the replica count.
	good := startReplicas(t, m, 1)
	if _, err := NewProxy(context.Background(), m, []string{good[0].URL}, ProxyOptions{Replication: 2}); err == nil {
		t.Fatal("proxy accepted replication 2 over 1 replica")
	}
}

// TestProxyHealthzAndStats checks the proxy's own endpoints: healthz
// carries the manifest's digest (matching the replicas') plus the
// replica count, and stats break upstream traffic out per replica.
func TestProxyHealthzAndStats(t *testing.T) {
	m, replicas, shardVertex := proxyFixture(t)
	_, ts := startProxy(t, m, replicas, ProxyOptions{Replication: 1})
	client := api.New(ts.URL)

	h, err := client.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rh, err := api.New(replicas[0].URL).Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Kind != "conn" || h.Replicas != 2 ||
		h.Shards != m.NumShards() || h.Digest == "" || h.Digest != rh.Digest {
		t.Fatalf("proxy healthz = %+v (replica digest %q)", h, rh.Digest)
	}

	// One batch touching every shard, then check the counters.
	req := &api.QueryRequest{}
	for _, v := range shardVertex {
		req.Pairs = append(req.Pairs, [2]int32{v, v})
	}
	results, err := client.Connected(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(req.Pairs) {
		t.Fatalf("got %d results for %d pairs", len(results), len(req.Pairs))
	}
	stats, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Kind != "conn" || len(stats.Upstreams) != 2 {
		t.Fatalf("proxy stats = %+v", stats)
	}
	if stats.PairsServed != uint64(len(req.Pairs)) {
		t.Fatalf("pairs served %d, want %d", stats.PairsServed, len(req.Pairs))
	}
	var assigned, fanned uint64
	seen := make(map[int]bool)
	for _, u := range stats.Upstreams {
		assigned += uint64(len(u.Shards))
		fanned += u.Requests
		for _, id := range u.Shards {
			if seen[id] {
				t.Fatalf("shard %d assigned twice at replication 1: %+v", id, stats.Upstreams)
			}
			seen[id] = true
		}
	}
	if assigned != uint64(m.NumShards()) {
		t.Fatalf("placement covers %d of %d shards", assigned, m.NumShards())
	}
	if fanned != uint64(m.NumShards()) {
		t.Fatalf("one batch over every shard fanned %d sub-requests, want %d", fanned, m.NumShards())
	}
	if ep := stats.Endpoints["connected"]; ep.Requests != 1 || ep.Errors != 0 {
		t.Fatalf("connected counters = %+v", ep)
	}
}

// TestProxyMergeBytes spot-checks the merge against the raw monolithic
// bytes for a batch mixing in-shard, cross-component and duplicate
// pairs under a shared fault set — the exact splice path.
func TestProxyMergeBytes(t *testing.T) {
	g := shardMatrixGraph()
	router, err := ftrouting.NewRouter(g, 3, 2, ftrouting.RouterOptions{Seed: 7, Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	mono := startServer(t, router, Options{})
	m := shardScheme(t, router, ftrouting.ShardOptions{})
	_, proxy := startProxy(t, m, startReplicas(t, m, 2), ProxyOptions{Replication: 2})
	raw := `{"pairs":[[0,5],[6,13],[0,23],[14,22],[0,5],[5,14],[23,23]],"faults":[0,15,15]}`
	for _, endpoint := range []string{"/v1/route", "/v1/route-forbidden"} {
		ms, mb := postRaw(t, mono.URL+endpoint, raw)
		ps, pb := postRaw(t, proxy.URL+endpoint, raw)
		if ms != ps || !bytes.Equal(mb, pb) {
			t.Fatalf("%s: mono %d %s\nproxy %d %s", endpoint, ms, mb, ps, pb)
		}
	}
}
