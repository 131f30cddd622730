package serve

// Remote shard backend suite: a manifest-only replica fetching shards
// over HTTP must answer byte-identically to the monolithic daemon
// (results and error envelopes alike); transport failures surface as
// typed 502 upstream_failure envelopes and never poison the resident
// LRU; corrupt or truncated remote shards are rejected before install;
// concurrent requests for one shard fetch it exactly once; fetch
// latency, retries, and failures land in /v1/stats and /metrics.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ftrouting"
	"ftrouting/internal/blob"
	"ftrouting/serve/api"
)

// remoteFixture shards a conn scheme over shardMatrixGraph into a dir
// and returns the labels, the manifest (local-dir store), and the dir.
func remoteFixture(t *testing.T) (*ftrouting.ConnLabels, *ftrouting.Manifest, string) {
	t.Helper()
	labels, err := ftrouting.BuildConnectivityLabels(shardMatrixGraph(), ftrouting.ConnOptions{
		Scheme: ftrouting.CutBased, MaxFaults: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	m, err := ftrouting.SaveShardedConn(dir, labels, ftrouting.ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return labels, m, dir
}

// startRemoteSharded serves the shard dir over HTTP and opens a sharded
// server through ftrouting.Open on the URL — a manifest-only replica
// holding nothing on local disk.
func startRemoteSharded(t *testing.T, dir string, opts Options) (*httptest.Server, *httptest.Server, *Server) {
	t.Helper()
	blobs := httptest.NewServer(http.FileServer(http.Dir(dir)))
	t.Cleanup(blobs.Close)
	src, err := ftrouting.Open(blobs.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSharded(src.Manifest(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, blobs, s
}

// TestServeRemoteEquivalence replays the full request mix — answers,
// validation errors, malformed bodies — against a monolithic server and
// a manifest-only replica fetching every shard over HTTP, requiring
// byte-identical bodies, then kills the blob server and requires typed
// upstream envelopes for shards not yet resident.
func TestServeRemoteEquivalence(t *testing.T) {
	labels, _, dir := remoteFixture(t)
	g := shardMatrixGraph()
	mono := startServer(t, labels, Options{})
	ts, blobs, _ := startRemoteSharded(t, dir, Options{})
	assertSameResponses(t, mono, ts, "/v1/connected", shardRequests(g))

	// A fresh replica over a dead blob server: the manifest is resident,
	// nothing else is, so queries report the upstream outage as a typed
	// envelope (bounded retries make this take a few backoffs).
	src, err := ftrouting.Open(blobs.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	src.Manifest().SetStore(mustHTTPStore(t, blobs.URL, blob.HTTPOptions{Retries: 1, Backoff: 1}))
	cold, err := NewSharded(src.Manifest(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	coldTS := httptest.NewServer(cold)
	defer coldTS.Close()
	blobs.Close()
	status, body := postRaw(t, coldTS.URL+"/v1/connected", `{"pairs":[[0,5]]}`)
	expectError(t, status, body, http.StatusBadGateway, api.CodeUpstream, -1)
}

func mustHTTPStore(t *testing.T, base string, opts blob.HTTPOptions) *blob.HTTP {
	t.Helper()
	h, err := blob.NewHTTP(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestServeRemoteFetchFailureDoesNotPoison injects transport failures
// mid-batch and proves the failed request reports a typed 502 while the
// LRU stays clean: the same batch succeeds immediately afterwards,
// byte-identical to the monolithic truth, and a shard loaded before the
// failing one stays resident.
func TestServeRemoteFetchFailureDoesNotPoison(t *testing.T) {
	labels, m, _ := remoteFixture(t)
	mono := startServer(t, labels, Options{})
	fault := blob.NewFault(m.Store())
	s, err := NewSharded(m, Options{ShardStore: fault})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	// The batch spans two shards; the first open succeeds, the second is
	// a scripted outage.
	batch := `{"pairs":[[0,5],[6,13]]}`
	fault.Enqueue(blob.FaultOp{}, blob.FaultOp{OpenErr: fmt.Errorf("%w: injected outage", blob.ErrFetch)})
	status, body := postRaw(t, ts.URL+"/v1/connected", batch)
	expectError(t, status, body, http.StatusBadGateway, api.CodeUpstream, -1)

	// Queue drained: the identical batch answers like the monolith.
	status, body = postRaw(t, ts.URL+"/v1/connected", batch)
	wantStatus, wantBody := postRaw(t, mono.URL+"/v1/connected", batch)
	if status != wantStatus || string(body) != string(wantBody) {
		t.Fatalf("after outage: %d %s, want %d %s", status, body, wantStatus, wantBody)
	}

	// Three opens total: the pre-failure shard survived the failed batch
	// resident, so only the failed shard re-fetched.
	if n := fault.Opens(); n != 3 {
		t.Fatalf("store opens = %d, want 3 (failed shard refetched, resident shard kept)", n)
	}
	st := s.Stats().Shards
	if st.FetchFailures != 0 {
		// The Fault store is not Observable over a Dir inner, so fetch
		// counters stay zero here; the typed envelope above is the check.
		t.Fatalf("unexpected fetch failure counter %d from a non-observable store", st.FetchFailures)
	}
}

// TestServeRemoteCorruptionRejected flips one payload byte (then
// truncates) in transit and proves the shard is rejected with a 500
// before install: the next clean fetch of the same shard answers
// correctly, which could not happen had the corrupt bytes been cached.
func TestServeRemoteCorruptionRejected(t *testing.T) {
	labels, m, _ := remoteFixture(t)
	mono := startServer(t, labels, Options{})
	fault := blob.NewFault(m.Store())
	s, err := NewSharded(m, Options{ShardStore: fault})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	req := `{"pairs":[[0,5]]}`
	shardBytes := m.ShardBytes(m.ShardOf(0))
	// Bit flip mid-payload: decode fails the CRC/structure checks.
	fault.Enqueue(blob.FaultOp{FlipBit: shardBytes / 2})
	status, body := postRaw(t, ts.URL+"/v1/connected", req)
	expectError(t, status, body, http.StatusInternalServerError, api.CodeInternal, -1)
	// Truncation: rejected by the manifest size check before decoding.
	fault.Enqueue(blob.FaultOp{Truncate: shardBytes - 7})
	status, body = postRaw(t, ts.URL+"/v1/connected", req)
	expectError(t, status, body, http.StatusInternalServerError, api.CodeInternal, -1)

	// Clean fetch serves the right answer — corrupt bytes never installed.
	status, body = postRaw(t, ts.URL+"/v1/connected", req)
	wantStatus, wantBody := postRaw(t, mono.URL+"/v1/connected", req)
	if status != wantStatus || string(body) != string(wantBody) {
		t.Fatalf("after corruption: %d %s, want %d %s", status, body, wantStatus, wantBody)
	}
	if n := fault.Opens(); n != 3 {
		t.Fatalf("store opens = %d, want 3 (both rejected fetches retried)", n)
	}
}

// TestServeRemoteLoadOnce fires concurrent batches all touching one
// shard at a cold replica and counts the blob server's GETs: the shard
// cache's single-flight must fetch the shard exactly once.
func TestServeRemoteLoadOnce(t *testing.T) {
	_, m, dir := remoteFixture(t)
	var mu sync.Mutex
	gets := make(map[string]int)
	fileServer := http.FileServer(http.Dir(dir))
	blobs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		gets[r.URL.Path]++
		mu.Unlock()
		fileServer.ServeHTTP(w, r)
	}))
	defer blobs.Close()
	src, err := ftrouting.Open(blobs.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSharded(src.Manifest(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := doPost(ts.URL+"/v1/connected", `{"pairs":[[0,5]]}`)
			if err != nil || resp.status != http.StatusOK {
				t.Errorf("concurrent query: %v %+v", err, resp)
			}
		}()
	}
	wg.Wait()
	shardPath := "/" + m.Shards()[m.ShardOf(0)].Name
	mu.Lock()
	defer mu.Unlock()
	if gets[shardPath] != 1 {
		t.Fatalf("shard blob fetched %d times under concurrency, want 1 (gets: %v)", gets[shardPath], gets)
	}
}

// TestServeRemoteFetchStats drives a flaky blob backend (one 503 per
// blob before success) and checks the fetch trio lands in /v1/stats and
// the obs instruments land in /metrics, while a local-disk server keeps
// the fetch fields absent from its stats body.
func TestServeRemoteFetchStats(t *testing.T) {
	_, m, dir := remoteFixture(t)
	var mu sync.Mutex
	attempts := make(map[string]int)
	fileServer := http.FileServer(http.Dir(dir))
	blobs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		attempts[r.URL.Path]++
		first := attempts[r.URL.Path] == 1
		mu.Unlock()
		if first && r.URL.Path != "/"+ftrouting.ManifestFileName {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		fileServer.ServeHTTP(w, r)
	}))
	defer blobs.Close()

	store := mustHTTPStore(t, blobs.URL, blob.HTTPOptions{Backoff: 1})
	obsCfg, _ := testObs()
	s, err := NewSharded(m, Options{ShardStore: store, Obs: obsCfg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	status, body := postRaw(t, ts.URL+"/v1/connected", `{"pairs":[[0,5],[6,13]]}`)
	if status != http.StatusOK {
		t.Fatalf("remote query: %d %s", status, body)
	}
	st := s.Stats().Shards
	if st.Fetches < 2 || st.FetchRetries < 2 {
		t.Fatalf("fetch stats = %+v, want >=2 fetches with >=2 retries", st)
	}
	// The wire body carries the fetch fields...
	status, statsBody := getBody(t, ts.URL+"/v1/stats")
	if status != http.StatusOK || !strings.Contains(statsBody, `"fetches"`) ||
		!strings.Contains(statsBody, `"fetch_retries"`) {
		t.Fatalf("/v1/stats missing fetch fields: %d %s", status, statsBody)
	}
	// ...and /metrics carries the instruments.
	status, metrics := getBody(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: %d", status)
	}
	for _, name := range []string{"ftroute_shard_fetch_seconds", "ftroute_shard_fetch_retries_total", "ftroute_shard_fetch_failures_total"} {
		if !strings.Contains(metrics, name) {
			t.Fatalf("/metrics missing %s:\n%s", name, metrics)
		}
	}

	// A local-disk sharded server reports no fetch fields at all: the
	// stats body keeps its pre-remote shape.
	local, err := NewSharded(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lts := httptest.NewServer(local)
	defer lts.Close()
	if status, body := postRaw(t, lts.URL+"/v1/connected", `{"pairs":[[0,5]]}`); status != http.StatusOK {
		t.Fatalf("local query: %d %s", status, body)
	}
	if _, localStats := getBody(t, lts.URL+"/v1/stats"); strings.Contains(localStats, `"fetches"`) {
		t.Fatalf("local-disk stats body grew fetch fields: %s", localStats)
	}
}

// getBody GETs a URL and returns the status and body.
func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}
