package serve

// Observability suite: the instrumented serving stack must change
// nothing a client can see — query bodies stay byte-identical, stats
// stays backward-compatible — while /metrics exposes well-formed
// Prometheus text on every tier, trace IDs propagate edge → proxy →
// replica (and through stacked proxies), access logs carry the golden
// field set, and ?debug=timing echoes the per-stage breakdown with
// nested upstream timings.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ftrouting"
	"ftrouting/internal/obs"
	"ftrouting/serve/api"
)

// captureHandler is a slog.Handler that records every emitted line for
// assertion: level, message and flattened attributes.
type logRecord struct {
	level slog.Level
	msg   string
	attrs map[string]slog.Value
}

type captureHandler struct {
	mu   sync.Mutex
	recs []logRecord
}

func (h *captureHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h *captureHandler) Handle(_ context.Context, r slog.Record) error {
	rec := logRecord{level: r.Level, msg: r.Message, attrs: make(map[string]slog.Value)}
	r.Attrs(func(a slog.Attr) bool {
		rec.attrs[a.Key] = a.Value
		return true
	})
	h.mu.Lock()
	h.recs = append(h.recs, rec)
	h.mu.Unlock()
	return nil
}

func (h *captureHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *captureHandler) WithGroup(string) slog.Handler      { return h }

func (h *captureHandler) records() []logRecord {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]logRecord(nil), h.recs...)
}

// testObs builds a fully-enabled Observability with a capturing log.
func testObs() (Observability, *captureHandler) {
	h := &captureHandler{}
	return Observability{Metrics: obs.NewRegistry(), AccessLog: slog.New(h)}, h
}

// obsScheme builds the small connectivity scheme the suite serves.
func obsScheme(t *testing.T) (*ftrouting.Graph, *ftrouting.ConnLabels) {
	t.Helper()
	g := ftrouting.RandomConnected(30, 45, 7)
	labels, err := ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{
		Scheme: ftrouting.SketchBased, MaxFaults: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return g, labels
}

// scrape fetches a /metrics body.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

var promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)

// lintPromText validates Prometheus text exposition 0.0.4: every sample
// line parses, HELP and TYPE appear exactly once per family and before
// its samples, and every histogram series has monotone cumulative
// buckets whose terminal le="+Inf" count equals its _count sample.
func lintPromText(t *testing.T, body string) {
	t.Helper()
	help := make(map[string]bool)
	typ := make(map[string]string)
	type histSeries struct {
		les      []float64
		counts   []uint64
		lastInf  bool
		count    uint64
		hasCount bool
	}
	hists := make(map[string]*histSeries)
	baseOf := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suf); ok && typ[b] == "histogram" {
				return b
			}
		}
		return name
	}
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			fields := strings.SplitN(line[len("# HELP "):], " ", 2)
			if help[fields[0]] {
				t.Fatalf("line %d: duplicate HELP for %s", ln+1, fields[0])
			}
			help[fields[0]] = true
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line[len("# TYPE "):])
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			if _, dup := typ[fields[0]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, fields[0])
			}
			typ[fields[0]] = fields[1]
		case line == "":
			t.Fatalf("line %d: blank line in exposition", ln+1)
		default:
			m := promSampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: unparseable sample: %q", ln+1, line)
			}
			name, labels, value := m[1], m[2], m[3]
			base := baseOf(name)
			if !help[base] || typ[base] == "" {
				t.Fatalf("line %d: sample %s before HELP/TYPE of %s", ln+1, name, base)
			}
			if typ[base] != "histogram" {
				if _, err := strconv.ParseFloat(value, 64); err != nil {
					t.Fatalf("line %d: bad value %q: %v", ln+1, value, err)
				}
				continue
			}
			// Histogram sample: key the series by base name + labels sans le
			// (a label-less histogram's bucket lines reduce to empty braces).
			leRe := regexp.MustCompile(`,?le="([^"]*)"`)
			series := leRe.ReplaceAllString(labels, "")
			if series == "{}" {
				series = ""
			}
			key := base + "|" + series
			s := hists[key]
			if s == nil {
				s = &histSeries{}
				hists[key] = s
			}
			switch {
			case strings.HasSuffix(name, "_bucket"):
				lm := leRe.FindStringSubmatch(labels)
				if lm == nil {
					t.Fatalf("line %d: _bucket without le label: %q", ln+1, line)
				}
				c, err := strconv.ParseUint(value, 10, 64)
				if err != nil {
					t.Fatalf("line %d: bad bucket count %q", ln+1, value)
				}
				if lm[1] == "+Inf" {
					s.lastInf = true
					s.les = append(s.les, -1)
				} else {
					if s.lastInf {
						t.Fatalf("line %d: bucket after le=\"+Inf\"", ln+1)
					}
					le, err := strconv.ParseFloat(lm[1], 64)
					if err != nil {
						t.Fatalf("line %d: bad le %q", ln+1, lm[1])
					}
					if n := len(s.les); n > 0 && s.les[n-1] >= le {
						t.Fatalf("line %d: le %v not increasing", ln+1, le)
					}
					s.les = append(s.les, le)
				}
				if n := len(s.counts); n > 0 && s.counts[n-1] > c {
					t.Fatalf("line %d: cumulative bucket count decreased", ln+1)
				}
				s.counts = append(s.counts, c)
			case strings.HasSuffix(name, "_count"):
				c, err := strconv.ParseUint(value, 10, 64)
				if err != nil {
					t.Fatalf("line %d: bad count %q", ln+1, value)
				}
				s.count, s.hasCount = c, true
			case strings.HasSuffix(name, "_sum"):
				if _, err := strconv.ParseFloat(value, 64); err != nil {
					t.Fatalf("line %d: bad sum %q", ln+1, value)
				}
			default:
				t.Fatalf("line %d: bare sample %s of histogram family %s", ln+1, name, base)
			}
		}
	}
	for key, s := range hists {
		if !s.lastInf {
			t.Fatalf("histogram %s: no terminal le=\"+Inf\" bucket", key)
		}
		if !s.hasCount {
			t.Fatalf("histogram %s: missing _count", key)
		}
		if got := s.counts[len(s.counts)-1]; got != s.count {
			t.Fatalf("histogram %s: +Inf bucket %d != _count %d", key, got, s.count)
		}
	}
}

// metricValue extracts one sample value (family + exact label string).
func metricValue(t *testing.T, body, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if name, val, ok := strings.Cut(line, " "); ok && name == sample {
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatalf("sample %s: bad value %q", sample, val)
			}
			return f
		}
	}
	t.Fatalf("sample %s not found in:\n%s", sample, body)
	return 0
}

func TestServeMetricsExposition(t *testing.T) {
	g, labels := obsScheme(t)
	cfg, _ := testObs()
	ts := startServer(t, labels, Options{Obs: cfg})

	pairs := servePairs(g.N())
	for i := 0; i < 3; i++ {
		status, _ := postJSON(t, ts.URL+"/v1/connected", api.QueryRequest{
			Pairs: pairs, Faults: ftrouting.RandomFaults(g, 2, uint64(i))})
		if status != http.StatusOK {
			t.Fatalf("query %d: status %d", i, status)
		}
	}
	if status, _ := postJSON(t, ts.URL+"/v1/connected", api.QueryRequest{
		Pairs: [][2]int32{{0, 999}}}); status != http.StatusBadRequest {
		t.Fatalf("bad pair: status %d", status)
	}

	body := scrape(t, ts.URL)
	lintPromText(t, body)
	if v := metricValue(t, body, `ftroute_requests_total{endpoint="connected"}`); v != 4 {
		t.Fatalf("requests_total = %v, want 4", v)
	}
	if v := metricValue(t, body, `ftroute_request_errors_total{endpoint="connected"}`); v != 1 {
		t.Fatalf("request_errors_total = %v, want 1", v)
	}
	if v := metricValue(t, body, "ftroute_pairs_served_total"); v != float64(3*len(pairs)) {
		t.Fatalf("pairs_served_total = %v, want %d", v, 3*len(pairs))
	}
	// 3 misses: one per distinct fault set. The failing request's only
	// pair is out of range, so its plan touches no shard and it never
	// reaches context prep.
	if v := metricValue(t, body, "ftroute_context_cache_misses_total"); v != 3 {
		t.Fatalf("cache_misses_total = %v, want 3", v)
	}
	if v := metricValue(t, body, `ftroute_request_seconds_count{endpoint="connected"}`); v != 4 {
		t.Fatalf("request_seconds_count = %v, want 4", v)
	}
	if v := metricValue(t, body, `ftroute_stage_seconds_count{stage="decode"}`); v < 3 {
		t.Fatalf("stage_seconds_count{decode} = %v, want >= 3", v)
	}

	// The uninstrumented server mounts no /metrics.
	plain := startServer(t, labels, Options{})
	resp, err := http.Get(plain.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("plain /metrics: status %d, want 404", resp.StatusCode)
	}
}

func TestShardedMetricsExposition(t *testing.T) {
	g := shardMatrixGraph()
	labels, err := ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{
		Scheme: ftrouting.SketchBased, MaxFaults: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	m := shardScheme(t, labels, ftrouting.ShardOptions{})
	cfg, _ := testObs()
	s, err := NewSharded(m, Options{Obs: cfg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	if status, body := postJSON(t, ts.URL+"/v1/connected", api.QueryRequest{
		Pairs: servePairs(g.N())}); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}

	body := scrape(t, ts.URL)
	lintPromText(t, body)
	if v := metricValue(t, body, "ftroute_shard_load_seconds_count"); v < 1 {
		t.Fatalf("shard_load_seconds_count = %v, want >= 1", v)
	}
	if v := metricValue(t, body, "ftroute_shard_resident_bytes"); v <= 0 {
		t.Fatalf("shard_resident_bytes = %v, want > 0", v)
	}
}

func TestProxyMetricsExposition(t *testing.T) {
	g := shardMatrixGraph()
	labels, err := ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{
		Scheme: ftrouting.SketchBased, MaxFaults: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	m := shardScheme(t, labels, ftrouting.ShardOptions{})
	replicas := startReplicas(t, m, 2)
	cfg, _ := testObs()
	_, proxy := startProxy(t, m, replicas, ProxyOptions{Obs: cfg})

	if status, body := postJSON(t, proxy.URL+"/v1/connected", api.QueryRequest{
		Pairs: servePairs(g.N())}); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}

	body := scrape(t, proxy.URL)
	lintPromText(t, body)
	var upstreamCount float64
	for _, r := range replicas {
		upstreamCount += metricValue(t, body,
			fmt.Sprintf(`ftroute_upstream_seconds_count{replica=%q}`, r.URL))
	}
	if upstreamCount < 1 {
		t.Fatalf("upstream_seconds_count total = %v, want >= 1", upstreamCount)
	}
	if v := metricValue(t, body, `ftroute_requests_total{endpoint="connected"}`); v != 1 {
		t.Fatalf("proxy requests_total = %v, want 1", v)
	}
}

// obsReplicas starts n sharded replicas, each with its own capture
// handler, and returns their test servers plus handlers.
func obsReplicas(t *testing.T, m *ftrouting.Manifest, n int) ([]*httptest.Server, []*captureHandler) {
	t.Helper()
	servers := make([]*httptest.Server, n)
	handlers := make([]*captureHandler, n)
	for i := range servers {
		cfg, h := testObs()
		s, err := NewSharded(m, Options{Obs: cfg})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = httptest.NewServer(s)
		t.Cleanup(servers[i].Close)
		handlers[i] = h
	}
	return servers, handlers
}

// queryRecords filters a tier's log to query-endpoint lines (the proxy's
// startup healthz verification logs on replicas too).
func queryRecords(recs []logRecord) []logRecord {
	var out []logRecord
	for _, r := range recs {
		if ep := r.attrs["endpoint"]; ep.Kind() == slog.KindString && ep.String() != "healthz" && ep.String() != "stats" {
			out = append(out, r)
		}
	}
	return out
}

func TestTracePropagationThroughProxyStack(t *testing.T) {
	g := shardMatrixGraph()
	labels, err := ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{
		Scheme: ftrouting.SketchBased, MaxFaults: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	m := shardScheme(t, labels, ftrouting.ShardOptions{})
	replicas, replicaLogs := obsReplicas(t, m, 2)

	innerCfg, innerLog := testObs()
	_, inner := startProxy(t, m, replicas, ProxyOptions{Obs: innerCfg})
	outerCfg, outerLog := testObs()
	_, outer := startProxy(t, m, []*httptest.Server{inner}, ProxyOptions{Obs: outerCfg})

	// A client-supplied trace ID must reach every tier's access log.
	const trace = "client-trace-42"
	raw, _ := json.Marshal(api.QueryRequest{Pairs: servePairs(g.N())})
	req, err := http.NewRequest(http.MethodPost, outer.URL+"/v1/connected", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(api.TraceHeader, trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	tierLogs := map[string][]*captureHandler{
		"outer proxy": {outerLog}, "inner proxy": {innerLog}, "replicas": replicaLogs}
	replicaLines := 0
	for tier, handlers := range tierLogs {
		lines := 0
		for _, h := range handlers {
			for _, rec := range queryRecords(h.records()) {
				lines++
				if got := rec.attrs["trace"].String(); got != trace {
					t.Fatalf("%s logged trace %q, want %q", tier, got, trace)
				}
			}
		}
		if lines == 0 {
			t.Fatalf("%s logged no query access lines", tier)
		}
		if tier == "replicas" {
			replicaLines = lines
		}
	}
	if replicaLines < 2 {
		t.Fatalf("replicas logged %d sub-batch lines, want >= 2 (multi-shard fan-out)", replicaLines)
	}

	// Without a client header the edge mints one well-formed ID, and the
	// same ID still reaches the replicas.
	if status, _ := postJSON(t, outer.URL+"/v1/connected", api.QueryRequest{
		Pairs: servePairs(g.N())}); status != http.StatusOK {
		t.Fatalf("second request failed")
	}
	recs := queryRecords(outerLog.records())
	minted := recs[len(recs)-1].attrs["trace"].String()
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(minted) {
		t.Fatalf("minted trace %q is not 16 hex chars", minted)
	}
	found := false
	for _, h := range replicaLogs {
		for _, rec := range queryRecords(h.records()) {
			if rec.attrs["trace"].String() == minted {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("minted trace %q never reached a replica log", minted)
	}
}

func TestAccessLogFields(t *testing.T) {
	g, labels := obsScheme(t)
	cfg, h := testObs()
	ts := startServer(t, labels, Options{Obs: cfg})

	faults := ftrouting.RandomFaults(g, 2, 3)
	pairs := servePairs(g.N())
	if status, _ := postJSON(t, ts.URL+"/v1/connected", api.QueryRequest{
		Pairs: pairs, Faults: faults}); status != http.StatusOK {
		t.Fatalf("query failed")
	}
	recs := h.records()
	if len(recs) != 1 {
		t.Fatalf("got %d log records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.level != slog.LevelInfo || rec.msg != "request" {
		t.Fatalf("level %v msg %q, want info/request", rec.level, rec.msg)
	}
	for key, want := range map[string]string{
		"endpoint": "connected", "cache": "miss"} {
		if got := rec.attrs[key].String(); got != want {
			t.Fatalf("attr %s = %q, want %q", key, got, want)
		}
	}
	for key, want := range map[string]int64{
		"status": 200, "pairs": int64(len(pairs)), "faults": int64(len(faults))} {
		if got := rec.attrs[key].Int64(); got != want {
			t.Fatalf("attr %s = %d, want %d", key, got, want)
		}
	}
	if rec.attrs["total_ns"].Int64() <= 0 {
		t.Fatalf("total_ns = %v, want > 0", rec.attrs["total_ns"])
	}
	for _, stage := range []string{"decode_ns", "context_ns", "eval_ns"} {
		if _, ok := rec.attrs[stage]; !ok {
			t.Fatalf("missing stage attr %s in %v", stage, rec.attrs)
		}
	}
	if _, ok := rec.attrs["code"]; ok {
		t.Fatalf("success line carries an error code")
	}

	// A validation error logs at warn with its machine-readable code.
	if status, _ := postJSON(t, ts.URL+"/v1/connected", api.QueryRequest{
		Pairs: [][2]int32{{0, 999}}}); status != http.StatusBadRequest {
		t.Fatalf("expected 400")
	}
	recs = h.records()
	if len(recs) != 2 {
		t.Fatalf("got %d log records, want 2", len(recs))
	}
	rec = recs[1]
	if rec.level != slog.LevelWarn {
		t.Fatalf("error line level %v, want warn", rec.level)
	}
	if rec.attrs["status"].Int64() != 400 || rec.attrs["code"].String() == "" {
		t.Fatalf("error line status %v code %q", rec.attrs["status"], rec.attrs["code"].String())
	}

	// A repeated fault set hits the prepared-context cache.
	if status, _ := postJSON(t, ts.URL+"/v1/connected", api.QueryRequest{
		Pairs: pairs, Faults: faults}); status != http.StatusOK {
		t.Fatalf("repeat query failed")
	}
	recs = h.records()
	if got := recs[2].attrs["cache"].String(); got != "hit" {
		t.Fatalf("repeat query cache = %q, want hit", got)
	}
}

func TestAccessLogSampling(t *testing.T) {
	g, labels := obsScheme(t)
	h := &captureHandler{}
	ts := startServer(t, labels, Options{Obs: Observability{
		AccessLog: slog.New(h), LogSample: 3}})

	pairs := servePairs(g.N())
	for i := 0; i < 9; i++ {
		if status, _ := postJSON(t, ts.URL+"/v1/connected", api.QueryRequest{Pairs: pairs}); status != http.StatusOK {
			t.Fatalf("query %d failed", i)
		}
	}
	if got := len(h.records()); got != 3 {
		t.Fatalf("sampled %d of 9 successes, want 3", got)
	}
	// Errors bypass sampling.
	for i := 0; i < 2; i++ {
		if status, _ := postJSON(t, ts.URL+"/v1/connected", api.QueryRequest{
			Pairs: [][2]int32{{0, 999}}}); status != http.StatusBadRequest {
			t.Fatalf("expected 400")
		}
	}
	if got := len(h.records()); got != 5 {
		t.Fatalf("got %d records after 2 errors, want 5", got)
	}
}

func TestDebugTimingEnvelope(t *testing.T) {
	g, labels := obsScheme(t)
	cfg, _ := testObs()
	ts := startServer(t, labels, Options{Obs: cfg})

	pairs := servePairs(g.N())
	req := api.QueryRequest{Pairs: pairs, Faults: ftrouting.RandomFaults(g, 2, 5)}

	// Without the opt-in the instrumented body carries no timing key.
	status, body := postJSON(t, ts.URL+"/v1/connected", req)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if strings.Contains(string(body), `"timing"`) {
		t.Fatalf("uninstrumented body leaks timing: %s", body)
	}

	status, body = postJSON(t, ts.URL+"/v1/connected?debug=timing", req)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var resp api.ConnectedResponse
	decodeInto(t, body, &resp)
	if resp.Timing == nil {
		t.Fatalf("no timing echo in %s", body)
	}
	if resp.Timing.Trace == "" || resp.Timing.TotalNanos <= 0 {
		t.Fatalf("timing = %+v", resp.Timing)
	}
	stages := make(map[string]bool)
	for _, st := range resp.Timing.Stages {
		stages[st.Stage] = true
	}
	for _, want := range []string{"decode", "context", "eval"} {
		if !stages[want] {
			t.Fatalf("stage %s missing from %+v", want, resp.Timing.Stages)
		}
	}
}

func TestDebugTimingNestedUpstreams(t *testing.T) {
	g := shardMatrixGraph()
	labels, err := ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{
		Scheme: ftrouting.SketchBased, MaxFaults: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	m := shardScheme(t, labels, ftrouting.ShardOptions{})
	replicas, _ := obsReplicas(t, m, 2)
	innerCfg, _ := testObs()
	_, inner := startProxy(t, m, replicas, ProxyOptions{Obs: innerCfg})
	outerCfg, _ := testObs()
	_, outer := startProxy(t, m, []*httptest.Server{inner}, ProxyOptions{Obs: outerCfg})

	status, body := postJSON(t, outer.URL+"/v1/connected?debug=timing",
		api.QueryRequest{Pairs: servePairs(g.N())})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp api.ConnectedResponse
	decodeInto(t, body, &resp)
	if resp.Timing == nil || len(resp.Timing.Upstreams) == 0 {
		t.Fatalf("outer timing has no upstreams: %s", body)
	}
	sawReplicaStage := false
	for _, up := range resp.Timing.Upstreams {
		if up.Replica != inner.URL {
			t.Fatalf("outer upstream replica %q, want %q", up.Replica, inner.URL)
		}
		if up.Nanos <= 0 || up.Timing == nil {
			t.Fatalf("outer upstream not echoed: %+v", up)
		}
		// The inner proxy's echo nests the replicas' own echoes.
		for _, inUp := range up.Timing.Upstreams {
			if inUp.Timing != nil && len(inUp.Timing.Stages) > 0 {
				sawReplicaStage = true
			}
		}
	}
	if !sawReplicaStage {
		t.Fatalf("no replica stage timings nested two proxies deep: %s", body)
	}
}

func TestInstrumentedResponsesByteIdentical(t *testing.T) {
	g := shardMatrixGraph()
	labels, err := ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{
		Scheme: ftrouting.SketchBased, MaxFaults: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	plain := startServer(t, labels, Options{})
	cfg, _ := testObs()
	instrumented := startServer(t, labels, Options{Obs: cfg})
	assertSameResponses(t, plain, instrumented, "/v1/connected", shardRequests(g))

	m := shardScheme(t, labels, ftrouting.ShardOptions{})
	_, plainProxy := startProxy(t, m, startReplicas(t, m, 2), ProxyOptions{})
	obsUp, _ := obsReplicas(t, m, 2)
	pcfg, _ := testObs()
	_, obsProxy := startProxy(t, m, obsUp, ProxyOptions{Obs: pcfg})
	assertSameResponses(t, plainProxy, obsProxy, "/v1/connected", shardRequests(g))
}

func TestStatsLatencySummaries(t *testing.T) {
	g, labels := obsScheme(t)
	cfg, _ := testObs()
	ts := startServer(t, labels, Options{Obs: cfg})

	pairs := servePairs(g.N())
	for i := 0; i < 4; i++ {
		if status, _ := postJSON(t, ts.URL+"/v1/connected", api.QueryRequest{Pairs: pairs}); status != http.StatusOK {
			t.Fatalf("query %d failed", i)
		}
	}
	// The typed client decodes the extended body.
	stats, err := api.New(ts.URL).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	lat, ok := stats.Latency["connected"]
	if !ok {
		t.Fatalf("no latency summary for connected in %+v", stats)
	}
	if lat.Count != 4 || lat.MeanNanos <= 0 || lat.P50Nanos <= 0 || lat.P50Nanos > lat.P99Nanos {
		t.Fatalf("latency summary %+v", lat)
	}
	for _, stage := range []string{"decode", "eval"} {
		if s, ok := stats.Stages[stage]; !ok || s.Count == 0 || s.MeanNanos <= 0 {
			t.Fatalf("stage summary %s = %+v (present %v)", stage, s, ok)
		}
	}

	// The uninstrumented stats body keeps its pre-instrumentation shape.
	plain := startServer(t, labels, Options{})
	if status, _ := postJSON(t, plain.URL+"/v1/connected", api.QueryRequest{Pairs: pairs}); status != http.StatusOK {
		t.Fatalf("plain query failed")
	}
	resp, err := http.Get(plain.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), `"latency"`) || strings.Contains(string(body), `"stages"`) {
		t.Fatalf("uninstrumented stats leaks summaries: %s", body)
	}
}
