// Package api holds the wire types and typed Go client of the serving
// HTTP/JSON API. Every tier speaks exactly this protocol — a monolithic
// daemon, a shard-affine replica and a fan-out proxy answer the same
// QueryRequest with byte-identical bodies — so the package is the one
// place the contract lives: servers (package serve) import it to encode,
// clients (the proxy fan-out, the e2e suites, smoke comparisons) import
// it to decode.
//
// Requests and responses mirror the batch API of the root package
// exactly: a request is one QueryBatch (pairs + fault set), a response
// carries the batch results in pair order, and errors round-trip the
// batch API's machine-readable codes and pair indices in a structured
// envelope instead of formatted text.
package api

import (
	"ftrouting"
)

// QueryRequest is the body of every query endpoint: a pair list and one
// fault set, the wire form of ftrouting.QueryBatch. Duplicate fault ids
// count once toward the fault bound; duplicate pairs are answered
// independently.
type QueryRequest struct {
	// Pairs lists the (source, target) queries as two-element arrays.
	Pairs [][2]int32 `json:"pairs"`
	// Faults lists the failed edge ids; order and duplication are
	// irrelevant (results depend only on the fault set).
	Faults []ftrouting.EdgeID `json:"faults,omitempty"`
}

// Batch converts the request to the root package's batch form.
func (q *QueryRequest) Batch() ftrouting.QueryBatch {
	pairs := make([]ftrouting.Pair, len(q.Pairs))
	for i, p := range q.Pairs {
		pairs[i] = ftrouting.Pair{S: p[0], T: p[1]}
	}
	return ftrouting.QueryBatch{Pairs: pairs, Faults: q.Faults}
}

// FromBatch converts a root-package batch to its wire form.
func FromBatch(b ftrouting.QueryBatch) *QueryRequest {
	req := &QueryRequest{Pairs: make([][2]int32, len(b.Pairs)), Faults: b.Faults}
	for i, p := range b.Pairs {
		req.Pairs[i] = [2]int32{p.S, p.T}
	}
	return req
}

// TraceHeader carries the request trace ID. The edge tier mints one when
// the caller does not supply it, every tier logs it, and the proxy
// forwards it on each sub-batch fan-out.
const TraceHeader = "X-Ftroute-Trace"

// DebugTimingParam and DebugTimingValue form the ?debug=timing query
// parameter that opts a request into the per-stage timing echo.
const (
	DebugTimingParam = "debug"
	DebugTimingValue = "timing"
)

// StageTiming reports one named serving stage's wall time.
type StageTiming struct {
	Stage string `json:"stage"`
	Nanos int64  `json:"nanos"`
}

// UpstreamTiming reports one proxy sub-batch: which shard group went to
// which replica, the upstream call's wall time, and the replica's own
// echoed breakdown (nested again for stacked proxies).
type UpstreamTiming struct {
	Shard   int     `json:"shard"`
	Replica string  `json:"replica"`
	Nanos   int64   `json:"nanos"`
	Timing  *Timing `json:"timing,omitempty"`
}

// Timing is the opt-in (?debug=timing) per-request breakdown echoed in
// the response envelope. It is absent unless requested, so instrumented
// responses stay byte-identical to uninstrumented ones.
type Timing struct {
	Trace      string           `json:"trace,omitempty"`
	TotalNanos int64            `json:"total_nanos"`
	Stages     []StageTiming    `json:"stages,omitempty"`
	Upstreams  []UpstreamTiming `json:"upstreams,omitempty"`
}

// ConnectedResponse answers /v1/connected: one bool per pair, in order.
type ConnectedResponse struct {
	Results []bool  `json:"results"`
	Timing  *Timing `json:"timing,omitempty"`
}

// EstimateResponse answers /v1/estimate: one estimate per pair, in order.
// Disconnected pairs carry the Unreachable sentinel from /v1/healthz.
type EstimateResponse struct {
	Estimates []int64 `json:"estimates"`
	Timing    *Timing `json:"timing,omitempty"`
}

// RouteResult is the wire form of ftrouting.RouteResult, field for field.
type RouteResult struct {
	Reached       bool    `json:"reached"`
	Cost          int64   `json:"cost"`
	Opt           int64   `json:"opt"`
	Stretch       float64 `json:"stretch"`
	Hops          int     `json:"hops"`
	Probes        int     `json:"probes"`
	Detections    int     `json:"detections"`
	Phases        int     `json:"phases"`
	Iterations    int     `json:"iterations"`
	MaxHeaderBits int     `json:"max_header_bits"`
	ProbeCost     int64   `json:"probe_cost"`
	Trace         []int32 `json:"trace,omitempty"`
}

// FromRouteResult converts a simulation result to its wire form.
func FromRouteResult(r ftrouting.RouteResult) RouteResult {
	return RouteResult{
		Reached:       r.Reached,
		Cost:          r.Cost,
		Opt:           r.Opt,
		Stretch:       r.Stretch,
		Hops:          r.Hops,
		Probes:        r.Probes,
		Detections:    r.Detections,
		Phases:        r.Phases,
		Iterations:    r.Iterations,
		MaxHeaderBits: r.MaxHeaderBits,
		ProbeCost:     r.ProbeCost,
		Trace:         r.Trace,
	}
}

// RouteResponse answers /v1/route and /v1/route-forbidden.
type RouteResponse struct {
	Results []RouteResult `json:"results"`
	Timing  *Timing       `json:"timing,omitempty"`
}

// HealthResponse answers /v1/healthz: static facts about the loaded
// scheme a client needs to form valid requests, plus the identity a
// fan-out tier needs to verify before taking traffic.
type HealthResponse struct {
	Status string `json:"status"`
	// Kind is the loaded scheme kind: conn, dist or router.
	Kind     string `json:"kind"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	// FaultBound is the scheme's f; -1 means unbounded (sketch labels).
	FaultBound int `json:"fault_bound"`
	// Unreachable is the estimate value of disconnected pairs.
	Unreachable int64 `json:"unreachable"`
	// Digest is the scheme digest (8 hex digits): the CRC32-C of the
	// scheme kind, parameters and global topology. Identical for a
	// monolithic scheme file and every sharding of it, so a proxy can
	// reject an upstream serving a foreign or incompatible build.
	Digest string `json:"digest,omitempty"`
	// Components and Shards describe the manifest of a server or proxy;
	// both are omitted by a server over a whole scheme (serve.New).
	Components int `json:"components,omitempty"`
	Shards     int `json:"shards,omitempty"`
	// Replicas is the upstream count of a proxy; omitted by servers that
	// answer from a local scheme.
	Replicas int `json:"replicas,omitempty"`
}

// EndpointStats counts one endpoint's traffic.
type EndpointStats struct {
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
}

// CacheStats reports the prepared-fault-context cache counters. Every
// lookup is exactly one hit or one miss, so Hits+Misses equals the number
// of non-empty query requests that reached fault preparation.
type CacheStats struct {
	Capacity  int    `json:"capacity"`
	Size      int    `json:"size"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// ShardEntryStats reports one shard's lifetime counters (kept across
// evictions) and current residency.
type ShardEntryStats struct {
	ID       int   `json:"id"`
	Resident bool  `json:"resident"`
	Bytes    int64 `json:"bytes"`
	// Loads and Evictions count this shard's cache entries and exits.
	Loads     uint64 `json:"loads"`
	Evictions uint64 `json:"evictions"`
	// ContextHits/ContextMisses/ContextEvictions count the shard's
	// prepared-fault-context lookups and LRU evictions (kept across shard
	// evictions, so per-row sums reconcile with the aggregate "cache"
	// block); Contexts is the live context count (0 when not resident).
	ContextHits      uint64 `json:"context_hits"`
	ContextMisses    uint64 `json:"context_misses"`
	ContextEvictions uint64 `json:"context_evictions"`
	Contexts         int    `json:"contexts"`
}

// ShardCacheStats reports the resident-shard cache of a sharded server:
// the memory budget, the resident set, and one row per shard.
type ShardCacheStats struct {
	BudgetBytes    int64  `json:"budget_bytes"`
	ResidentBytes  int64  `json:"resident_bytes"`
	ResidentShards int    `json:"resident_shards"`
	TotalShards    int    `json:"total_shards"`
	Loads          uint64 `json:"loads"`
	Evictions      uint64 `json:"evictions"`
	// Fetches, FetchRetries and FetchFailures count the shard store's
	// remote traffic: completed fetches, retried attempts, and fetches
	// that exhausted their retry budget. Only observable stores (the
	// HTTP backend) report them; local-directory serving omits all
	// three, keeping its stats body on its pre-remote shape.
	Fetches       uint64            `json:"fetches,omitempty"`
	FetchRetries  uint64            `json:"fetch_retries,omitempty"`
	FetchFailures uint64            `json:"fetch_failures,omitempty"`
	Shards        []ShardEntryStats `json:"shards"`
}

// UpstreamStats reports one proxy upstream's traffic: the sub-batches it
// answered, the structured errors it returned, and the transport-level
// failures that sent its sub-batches to another replica.
type UpstreamStats struct {
	Replica  string `json:"replica"`
	Shards   []int  `json:"shards"`
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	Failures uint64 `json:"failures"`
}

// LatencySummary condenses one request-latency histogram: the request
// count, the mean, and interpolated quantiles, all in nanoseconds.
type LatencySummary struct {
	Count     uint64 `json:"count"`
	MeanNanos int64  `json:"mean_nanos"`
	P50Nanos  int64  `json:"p50_nanos"`
	P99Nanos  int64  `json:"p99_nanos"`
}

// StageSummary condenses one serving stage's timing histogram.
type StageSummary struct {
	Count     uint64 `json:"count"`
	MeanNanos int64  `json:"mean_nanos"`
}

// StatsResponse answers /v1/stats. For servers Cache aggregates every
// shard's prepared-fault-context counters and Shards breaks the
// resident-shard cache out per shard; a server over a whole scheme
// (serve.New) omits Shards.
// Proxies report one Upstreams row per replica and omit the local cache
// blocks. Latency (per endpoint) and Stages (per serving stage) summarize
// the live latency histograms; both are omitted when metrics are
// disabled, keeping the pre-instrumentation body unchanged.
type StatsResponse struct {
	Kind        string                    `json:"kind"`
	Endpoints   map[string]EndpointStats  `json:"endpoints"`
	PairsServed uint64                    `json:"pairs_served"`
	Cache       CacheStats                `json:"cache"`
	Shards      *ShardCacheStats          `json:"shards,omitempty"`
	Upstreams   []UpstreamStats           `json:"upstreams,omitempty"`
	Latency     map[string]LatencySummary `json:"latency,omitempty"`
	Stages      map[string]StageSummary   `json:"stages,omitempty"`
}

// ErrorInfo is the structured error payload: a stable machine-readable
// code (the ftrouting.ErrorCode values plus the transport-level codes
// below), the human-readable message, and the failing pair index when the
// error is scoped to one pair of the batch.
type ErrorInfo struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	PairIndex *int   `json:"pair_index,omitempty"`
}

// ErrorBody is the envelope of every non-2xx response.
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
}

// Transport-level error codes (validation failures reuse the stable
// ftrouting.ErrorCode values verbatim).
const (
	CodeBadRequest       = "bad_request"
	CodeRequestTooLarge  = "request_too_large"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeNotFound         = "not_found"
	CodeUnsupported      = "unsupported_endpoint"
	CodeInternal         = string(ftrouting.CodeInternal)
	// CodeUpstream reports a proxy sub-batch whose every assigned replica
	// failed at the transport level (HTTP 502).
	CodeUpstream = "upstream_failure"
)
