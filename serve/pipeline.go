package serve

// The request pipeline every serving tier runs. A Server and a Proxy
// differ only in where a planned batch is answered — the local shard
// cache or the replica groups — so both embed one tier: the /v1 mux,
// method and scheme-kind checks, request decoding, the batch API's
// empty-batch shortcut, canonical faults and PlanBatch, response
// rendering, counters, healthz and stats. The backend answers the rest.

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"

	"ftrouting"
	"ftrouting/serve/api"
)

// backend answers the planned batches of one tier.
type backend interface {
	// answer evaluates a non-empty batch planned over the canonical fault
	// list canon and returns the endpoint's result column.
	answer(ctx context.Context, ep *endpoint, plan *ftrouting.BatchPlan, canon []ftrouting.EdgeID, ro *reqObs) (any, *apiError)
	// health and stats add the backend's fields to the /v1/healthz and
	// /v1/stats bodies.
	health(*api.HealthResponse)
	stats(*api.StatsResponse)
}

// endpointCounters counts one endpoint's traffic (lock-free; read by
// /v1/stats while requests are in flight).
type endpointCounters struct {
	requests atomic.Uint64
	errors   atomic.Uint64
}

// tier is the request pipeline over one manifest and one backend.
type tier struct {
	m           *ftrouting.Manifest
	kind        string
	maxBytes    int64
	be          backend
	obs         *tierObs
	mux         *http.ServeMux
	counters    map[string]*endpointCounters
	pairsServed atomic.Uint64
}

// requestLimit applies the request-body limit default: 0 selects
// DefaultMaxRequestBytes, negative limits are rejected.
func requestLimit(n int64) (int64, error) {
	if n == 0 {
		return DefaultMaxRequestBytes, nil
	}
	if n < 0 {
		return 0, fmt.Errorf("serve: MaxRequestBytes must be positive, got %d", n)
	}
	return n, nil
}

// init sets the pipeline up in place and installs the /v1 endpoint
// handlers and their counters, plus the /metrics scrape target when
// metrics are enabled.
func (t *tier) init(m *ftrouting.Manifest, maxBytes int64, be backend, o Observability) {
	t.m, t.kind, t.maxBytes, t.be, t.obs = m, m.Kind(), maxBytes, be, newTierObs(o)
	t.counters = make(map[string]*endpointCounters)
	t.mux = http.NewServeMux()
	handle := func(name string, h func(http.ResponseWriter, *http.Request, *reqObs) *apiError) {
		t.counters[name] = &endpointCounters{}
		t.mux.HandleFunc("/v1/"+name, instrumented(t.obs, t.counters, name, h))
	}
	for _, ep := range endpoints {
		ep := ep
		handle(ep.name, func(w http.ResponseWriter, r *http.Request, ro *reqObs) *apiError {
			return t.answerQuery(w, r, ep, ro)
		})
	}
	handle("healthz", t.handleHealthz)
	handle("stats", t.handleStats)
	if h := t.obs.metricsHandler(); h != nil {
		t.mux.Handle("/metrics", h)
	}
	t.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, errorf(http.StatusNotFound, api.CodeNotFound, "no such endpoint %s", r.URL.Path))
	})
}

// Kind returns the scheme kind served: "conn", "dist" or "router".
func (t *tier) Kind() string { return t.kind }

// ServeHTTP dispatches to the /v1 endpoint handlers.
func (t *tier) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t.mux.ServeHTTP(w, r)
}

// answerQuery is the query-endpoint pipeline. Every error a tier can
// produce before the backend runs — method, endpoint kind, body, fault
// set — is produced here, identically at every tier.
func (t *tier) answerQuery(w http.ResponseWriter, r *http.Request, ep *endpoint, ro *reqObs) *apiError {
	if r.Method != http.MethodPost {
		return errorf(http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
			"/v1/%s accepts POST, not %s", ep.name, r.Method)
	}
	if ep.kind != t.kind {
		return errorf(http.StatusNotFound, api.CodeUnsupported,
			"/v1/%s serves %s schemes; this server holds a %s scheme", ep.name, ep.kind, t.kind)
	}
	st := ro.now()
	req, e := decodeQueryRequest(r.Body, t.maxBytes)
	if e != nil {
		return e
	}
	ro.stage(stageDecode, st)
	batch := req.Batch()
	ro.setBatch(len(batch.Pairs), len(batch.Faults))
	// Mirror the batch API: an empty pair list returns empty results
	// without touching (or even validating) the fault set.
	var results any
	if len(batch.Pairs) > 0 {
		// Plan over the canonical fault set: the form every tier validates
		// and prepares, and the one a proxy forwards, so a replica's own
		// plan derives the identical per-shard restriction and global
		// distinct-fault count (which distance estimates need).
		canon := ftrouting.CanonicalFaults(batch.Faults)
		st = ro.now()
		plan, err := t.m.PlanBatch(ftrouting.QueryBatch{Pairs: batch.Pairs, Faults: canon})
		if err != nil {
			return fromBatchError(err)
		}
		ro.stage(stageValidate, st)
		if results, e = t.be.answer(r.Context(), ep, plan, canon, ro); e != nil {
			return e
		}
		t.pairsServed.Add(uint64(len(batch.Pairs)))
	}
	writeJSON(w, ep.render(results, ro.timing()))
	return nil
}

// getOnly rejects non-GET requests to a read-only endpoint.
func getOnly(r *http.Request, name string) *apiError {
	if r.Method != http.MethodGet {
		return errorf(http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
			"/v1/%s accepts GET, not %s", name, r.Method)
	}
	return nil
}

// handleHealthz answers GET /v1/healthz.
func (t *tier) handleHealthz(w http.ResponseWriter, r *http.Request, _ *reqObs) *apiError {
	if e := getOnly(r, "healthz"); e != nil {
		return e
	}
	g := t.m.Graph()
	resp := api.HealthResponse{
		Status:      "ok",
		Kind:        t.kind,
		Vertices:    g.N(),
		Edges:       g.M(),
		FaultBound:  t.m.FaultBound(),
		Unreachable: ftrouting.Unreachable,
		Digest:      fmt.Sprintf("%08x", t.m.Digest()),
	}
	t.be.health(&resp)
	writeJSON(w, resp)
	return nil
}

// handleStats answers GET /v1/stats.
func (t *tier) handleStats(w http.ResponseWriter, r *http.Request, _ *reqObs) *apiError {
	if e := getOnly(r, "stats"); e != nil {
		return e
	}
	writeJSON(w, t.Stats())
	return nil
}

// Stats snapshots the serving counters (the /v1/stats payload): endpoint
// traffic, pairs served and latency summaries, plus the backend's blocks.
func (t *tier) Stats() api.StatsResponse {
	resp := api.StatsResponse{
		Kind:        t.kind,
		Endpoints:   make(map[string]api.EndpointStats, len(t.counters)),
		PairsServed: t.pairsServed.Load(),
	}
	for name, c := range t.counters {
		resp.Endpoints[name] = api.EndpointStats{Requests: c.requests.Load(), Errors: c.errors.Load()}
	}
	t.be.stats(&resp)
	resp.Latency = t.obs.latencySummaries()
	resp.Stages = t.obs.stageSummaries()
	return resp
}
