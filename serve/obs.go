package serve

// The observability layer of a serving tier: per-endpoint request and
// latency instruments, per-stage timings, request tracing and structured
// access logs, shared verbatim by every server and the fan-out proxy.
// Everything is opt-in — a zero
// Observability keeps a tier byte-for-byte on its uninstrumented
// behavior — and nil-safe, so call sites never branch on whether metrics
// are enabled.

import (
	"context"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"ftrouting/internal/obs"
	"ftrouting/serve/api"
)

// Observability configures the metrics, tracing and structured logging
// of one serving tier. The zero value disables all of it.
type Observability struct {
	// Metrics is the registry the tier's instruments live in; expose it
	// (the server mounts it at GET /metrics) to scrape. Nil disables
	// metrics.
	Metrics *obs.Registry
	// AccessLog emits one structured line per request — trace ID,
	// endpoint, batch shape, status, stage timings, cache outcome. Nil
	// disables access logging.
	AccessLog *slog.Logger
	// LogSample logs every Nth request (0 and 1 log all). Errors are
	// always logged regardless of sampling.
	LogSample int
}

// Serving stage names: the keys of the per-stage histograms, the stats
// stage summaries and the ?debug=timing echo. Each tier reports the
// subset it runs: a server times decode/validate (batch
// planning)/context/eval, the proxy decode/validate/eval (the fan-out)
// /merge.
const (
	stageDecode   = "decode"
	stageValidate = "validate"
	stageContext  = "context"
	stageEval     = "eval"
	stageMerge    = "merge"
)

var stageNames = []string{stageDecode, stageValidate, stageContext, stageEval, stageMerge}

// tierObs holds one tier's resolved instruments. A nil *tierObs (the
// zero Observability) disables the whole layer; a tierObs without a
// registry traces and logs but records no metrics. Instrument maps
// resolve missing keys to typed nil instruments, whose methods no-op.
type tierObs struct {
	metrics *obs.Registry
	log     *slog.Logger
	sample  uint64
	logSeq  atomic.Uint64

	pairs    *obs.Counter
	requests map[string]*obs.Counter
	failures map[string]*obs.Counter
	latency  map[string]*obs.Histogram
	stages   map[string]*obs.Histogram

	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	badGateway  *obs.Counter
}

// newTierObs resolves the instruments every tier shares. Returns nil
// when the configuration disables the whole layer.
func newTierObs(o Observability) *tierObs {
	if o.Metrics == nil && o.AccessLog == nil {
		return nil
	}
	t := &tierObs{metrics: o.Metrics, log: o.AccessLog}
	if o.LogSample > 1 {
		t.sample = uint64(o.LogSample)
	}
	m := o.Metrics
	if m == nil {
		return t
	}
	t.pairs = m.Counter("ftroute_pairs_served_total",
		"Pairs answered across all query endpoints.")
	t.requests = make(map[string]*obs.Counter)
	t.failures = make(map[string]*obs.Counter)
	t.latency = make(map[string]*obs.Histogram)
	names := []string{"healthz", "stats"}
	for _, ep := range endpoints {
		names = append(names, ep.name)
	}
	for _, name := range names {
		l := obs.L("endpoint", name)
		t.requests[name] = m.Counter("ftroute_requests_total",
			"Requests received, by endpoint.", l)
		t.failures[name] = m.Counter("ftroute_request_errors_total",
			"Requests answered with an error envelope, by endpoint.", l)
		t.latency[name] = m.Histogram("ftroute_request_seconds",
			"Request wall time, by endpoint.", l)
	}
	t.stages = make(map[string]*obs.Histogram)
	for _, st := range stageNames {
		t.stages[st] = m.Histogram("ftroute_stage_seconds",
			"Serving stage wall time, by stage.", obs.L("stage", st))
	}
	return t
}

// cacheInstruments registers the prepared-fault-context cache counters
// (servers only; the proxy prepares no contexts).
func (t *tierObs) cacheInstruments() {
	if t == nil || t.metrics == nil {
		return
	}
	t.cacheHits = t.metrics.Counter("ftroute_context_cache_hits_total",
		"Prepared-fault-context cache hits.")
	t.cacheMisses = t.metrics.Counter("ftroute_context_cache_misses_total",
		"Prepared-fault-context cache misses.")
}

// shardInstruments registers the resident-shard cache instruments
// (sharded servers only). All nil when metrics are disabled.
func (t *tierObs) shardInstruments() (load *obs.Histogram, resident *obs.Gauge, evictions *obs.Counter) {
	if t == nil || t.metrics == nil {
		return nil, nil, nil
	}
	return t.metrics.Histogram("ftroute_shard_load_seconds",
			"Shard load wall time (file read and decode)."),
		t.metrics.Gauge("ftroute_shard_resident_bytes",
			"Bytes of resident shards (manifest-recorded file sizes)."),
		t.metrics.Counter("ftroute_shard_evictions_total",
			"Shards evicted from the resident set.")
}

// fetchInstruments registers the shard-store fetch instruments (sharded
// servers only; only observable stores feed them, so local-directory
// serving leaves them at zero). All nil when metrics are disabled.
func (t *tierObs) fetchInstruments() (fetch *obs.Histogram, retries, failures *obs.Counter) {
	if t == nil || t.metrics == nil {
		return nil, nil, nil
	}
	return t.metrics.Histogram("ftroute_shard_fetch_seconds",
			"Shard-store fetch wall time (successful fetches, retries included)."),
		t.metrics.Counter("ftroute_shard_fetch_retries_total",
			"Shard-store fetch attempts that failed and were retried."),
		t.metrics.Counter("ftroute_shard_fetch_failures_total",
			"Shard-store fetches that exhausted their retry budget.")
}

// upstreamInstruments registers one replica's fan-out instruments
// (proxies only), plus the tier-wide bad-gateway counter. All nil when
// metrics are disabled.
func (t *tierObs) upstreamInstruments(replica string) (lat *obs.Histogram, errs, failovers *obs.Counter) {
	if t == nil || t.metrics == nil {
		return nil, nil, nil
	}
	t.badGateway = t.metrics.Counter("ftroute_upstream_bad_gateway_total",
		"Sub-batches whose every assigned replica failed (HTTP 502).")
	l := obs.L("replica", replica)
	return t.metrics.Histogram("ftroute_upstream_seconds",
			"Upstream sub-request wall time, by replica (failed attempts included).", l),
		t.metrics.Counter("ftroute_upstream_errors_total",
			"Structured rejections answered by the replica.", l),
		t.metrics.Counter("ftroute_upstream_failovers_total",
			"Transport-level failures that moved a sub-batch off the replica.", l)
}

// badGatewayInc counts one exhausted-assignment sub-batch.
func (t *tierObs) badGatewayInc() {
	if t == nil {
		return
	}
	t.badGateway.Inc()
}

// metricsHandler returns the GET /metrics handler, or nil when metrics
// are disabled.
func (t *tierObs) metricsHandler() http.Handler {
	if t == nil || t.metrics == nil {
		return nil
	}
	return t.metrics.Handler()
}

// latencySummaries condenses the per-endpoint latency histograms for
// /v1/stats. Nil when metrics are disabled or nothing was served, so the
// stats body stays exactly its pre-instrumentation shape.
func (t *tierObs) latencySummaries() map[string]api.LatencySummary {
	if t == nil || t.metrics == nil {
		return nil
	}
	out := make(map[string]api.LatencySummary)
	for name, h := range t.latency {
		s := h.Snapshot()
		if s.Count() == 0 {
			continue
		}
		out[name] = api.LatencySummary{
			Count:     s.Count(),
			MeanNanos: int64(s.Mean()),
			P50Nanos:  int64(s.Quantile(0.5)),
			P99Nanos:  int64(s.Quantile(0.99)),
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// stageSummaries condenses the per-stage histograms for /v1/stats.
func (t *tierObs) stageSummaries() map[string]api.StageSummary {
	if t == nil || t.metrics == nil {
		return nil
	}
	out := make(map[string]api.StageSummary)
	for name, h := range t.stages {
		s := h.Snapshot()
		if s.Count() == 0 {
			continue
		}
		out[name] = api.StageSummary{Count: s.Count(), MeanNanos: int64(s.Mean())}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// reqObs tracks one in-flight request: its trace ID, start time, batch
// shape, stage timings and cache outcome. A nil *reqObs (observability
// disabled) makes every method a no-op, so the request pipeline calls
// them unconditionally.
type reqObs struct {
	t        *tierObs
	endpoint string
	trace    string
	debug    bool
	start    time.Time
	pairs    int
	faults   int
	cache    string // "hit", "miss" or "" (no context lookup ran)
	stages   []api.StageTiming
	// upstreams collects the proxy's per-sub-batch fan-out timings,
	// appended after the fan-out joins (never concurrently).
	upstreams []api.UpstreamTiming
}

// begin opens one request's observation: honor a well-formed
// X-Ftroute-Trace (the edge mints a fresh ID otherwise) and latch the
// ?debug=timing opt-in. Returns nil — observing nothing — on a nil tier.
func (t *tierObs) begin(r *http.Request, endpoint string) *reqObs {
	if t == nil {
		return nil
	}
	ro := &reqObs{t: t, endpoint: endpoint, start: time.Now()}
	if tr := obs.SanitizeTraceID(r.Header.Get(api.TraceHeader)); tr != "" {
		ro.trace = tr
	} else {
		ro.trace = obs.NewTraceID()
	}
	if r.URL.RawQuery != "" && r.URL.Query().Get(api.DebugTimingParam) == api.DebugTimingValue {
		ro.debug = true
	}
	return ro
}

// now stamps a stage start (the zero time when observation is off, so
// the disabled path never calls time.Now).
func (ro *reqObs) now() time.Time {
	if ro == nil {
		return time.Time{}
	}
	return time.Now()
}

// stage records one completed serving stage.
func (ro *reqObs) stage(name string, start time.Time) {
	if ro == nil {
		return
	}
	d := time.Since(start)
	ro.t.stages[name].Observe(d)
	ro.stages = append(ro.stages, api.StageTiming{Stage: name, Nanos: int64(d)})
}

// setBatch records the decoded batch shape for metrics and the log line.
func (ro *reqObs) setBatch(pairs, faults int) {
	if ro == nil {
		return
	}
	ro.pairs, ro.faults = pairs, faults
}

// cacheResult records one prepared-fault-context lookup. A sharded batch
// looks up once per touched shard; the logged outcome is "hit" only when
// every lookup hit.
func (ro *reqObs) cacheResult(hit bool) {
	if ro == nil {
		return
	}
	if hit {
		ro.t.cacheHits.Inc()
		if ro.cache == "" {
			ro.cache = "hit"
		}
	} else {
		ro.t.cacheMisses.Inc()
		ro.cache = "miss"
	}
}

// addUpstream records one fan-out sub-request's timing (proxy only;
// called after the fan-out joins).
func (ro *reqObs) addUpstream(u api.UpstreamTiming) {
	if ro == nil {
		return
	}
	ro.upstreams = append(ro.upstreams, u)
}

// timing builds the ?debug=timing echo, nil unless the request opted in
// — so instrumented responses stay byte-identical to uninstrumented
// ones.
func (ro *reqObs) timing() *api.Timing {
	if ro == nil || !ro.debug {
		return nil
	}
	return &api.Timing{
		Trace:      ro.trace,
		TotalNanos: int64(time.Since(ro.start)),
		Stages:     ro.stages,
		Upstreams:  ro.upstreams,
	}
}

// finish closes one request's observation: latency and traffic
// instruments, then the sampled access-log line.
func (ro *reqObs) finish(e *apiError) {
	if ro == nil {
		return
	}
	t := ro.t
	total := time.Since(ro.start)
	t.requests[ro.endpoint].Inc()
	t.latency[ro.endpoint].Observe(total)
	status := http.StatusOK
	if e != nil {
		t.failures[ro.endpoint].Inc()
		status = e.status
	} else if ro.pairs > 0 {
		t.pairs.Add(uint64(ro.pairs))
	}
	if t.log == nil || (e == nil && !t.sampled()) {
		return
	}
	// Client errors log at warn and server-side failures at error, so
	// -log-level warn keeps only failing requests.
	lvl := slog.LevelInfo
	switch {
	case status >= 500:
		lvl = slog.LevelError
	case status >= 400:
		lvl = slog.LevelWarn
	}
	if !t.log.Enabled(context.Background(), lvl) {
		return
	}
	attrs := make([]slog.Attr, 0, 8+len(ro.stages))
	attrs = append(attrs,
		slog.String("trace", ro.trace),
		slog.String("endpoint", ro.endpoint),
		slog.Int("status", status),
		slog.Int("pairs", ro.pairs),
		slog.Int("faults", ro.faults),
		slog.Int64("total_ns", int64(total)),
	)
	if ro.cache != "" {
		attrs = append(attrs, slog.String("cache", ro.cache))
	}
	for _, st := range ro.stages {
		attrs = append(attrs, slog.Int64(st.Stage+"_ns", st.Nanos))
	}
	if e != nil {
		attrs = append(attrs, slog.String("code", e.code))
	}
	t.log.LogAttrs(context.Background(), lvl, "request", attrs...)
}

// sampled applies the access-log sampling: every Nth request logs.
func (t *tierObs) sampled() bool {
	if t.sample <= 1 {
		return true
	}
	return t.logSeq.Add(1)%t.sample == 1
}

// instrumented wraps one endpoint handler with the full per-request
// pipeline both tiers share: legacy endpoint counters, request
// observation, error-envelope rendering, instruments and the access-log
// line.
func instrumented(t *tierObs, counters map[string]*endpointCounters, name string,
	h func(http.ResponseWriter, *http.Request, *reqObs) *apiError) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c := counters[name]
		c.requests.Add(1)
		ro := t.begin(r, name)
		e := h(w, r, ro)
		if e != nil {
			c.errors.Add(1)
			writeError(w, e)
		}
		ro.finish(e)
	}
}
