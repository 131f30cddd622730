// Package serve is the long-running query daemon over persisted schemes:
// it answers pair batches over an HTTP/JSON API for a whole scheme (any
// file ftroute build writes: connectivity, distance or routing) or a
// shard manifest, and fans batches out over replicas as a proxy. This is
// the deployment shape the paper's preprocessing/query split is designed
// for — all graph-dependent work happened at build time, so the serving
// tier is pure label decoding: load once, serve heavy traffic.
//
// Endpoints (all under /v1, POST bodies are api.QueryRequest JSON):
//
//	POST /v1/connected        connectivity per pair (conn schemes)
//	POST /v1/estimate         distance estimate per pair (dist schemes)
//	POST /v1/route            unknown-fault routing per pair (router schemes)
//	POST /v1/route-forbidden  known-fault routing per pair (router schemes)
//	GET  /v1/healthz          scheme kind, sizes, fault bound
//	GET  /v1/stats            per-endpoint counters and cache statistics
//
// There is one request pipeline. A whole scheme is served as the
// single-shard manifest ftrouting.ManifestOf wraps it in, so a Server
// over a scheme, a Server over a manifest and a Proxy over replicas all
// run the same front half — decode, canonical faults, PlanBatch — and
// differ only in the backend that answers the plan: the local shard
// cache or the replica groups. Responses are bit-identical to direct
// ConnectedBatch / EstimateBatch / RouteBatch / RouteForbiddenBatch
// calls at every tier. A bounded LRU per resident shard, keyed by the
// canonicalized fault set, keeps prepared fault contexts warm, so
// repeated queries against the same failures skip fault-set preparation
// (decoder Steps 1–3) entirely. Errors carry the batch API's
// machine-readable codes and pair indices in a structured JSON envelope.
package serve

import (
	"context"
	"errors"
	"net/http"
	"strconv"

	"ftrouting"
	"ftrouting/internal/blob"
	"ftrouting/serve/api"
)

// Default limits; zero-valued Options fields select these.
const (
	// DefaultContextCacheSize bounds the prepared fault contexts kept warm.
	DefaultContextCacheSize = 64
	// DefaultMaxRequestBytes bounds a request body (8 MiB ≈ one million
	// pairs per request).
	DefaultMaxRequestBytes = 8 << 20
	// DefaultShardBudgetBytes bounds the resident shards of a server
	// (measured as shard file bytes, the manifest's recorded cost).
	DefaultShardBudgetBytes = 1 << 30
)

// Options configures a Server.
type Options struct {
	// Parallelism bounds the worker goroutines evaluating each request's
	// pairs: 0 uses GOMAXPROCS, 1 evaluates sequentially (the root batch
	// API's convention).
	Parallelism int
	// ContextCacheSize bounds the prepared-fault-context LRU of each
	// resident shard (contexts die with their shard): 0 selects
	// DefaultContextCacheSize, negative disables caching.
	ContextCacheSize int
	// MaxRequestBytes bounds a request body: 0 selects
	// DefaultMaxRequestBytes.
	MaxRequestBytes int64
	// ShardBudgetBytes bounds the resident shard bytes: 0 selects
	// DefaultShardBudgetBytes, negative disables eviction. Shards pinned
	// by in-flight requests are never evicted, so a single batch touching
	// more than the budget transiently exceeds it. The in-memory shard of
	// a whole scheme (New) costs no budget and is never evicted.
	ShardBudgetBytes int64
	// ShardStore overrides where a server fetches shards on resident-cache
	// miss: nil uses the manifest's own store (the directory it was
	// loaded from, or the remote backend a URL source resolved to). Every
	// fetched shard is verified against the manifest's recorded checksum
	// and scheme digest before install, whatever the store;
	// transport-level fetch failures answer as typed upstream_failure
	// envelopes (HTTP 502). A whole scheme (New) fetches nothing.
	ShardStore blob.Store
	// Obs configures metrics, request tracing and access logging; the
	// zero value disables the whole layer and keeps the server
	// byte-for-byte on its uninstrumented behavior.
	Obs Observability
}

// Server answers batch queries for one manifest from a local shard
// cache. New serves a whole in-memory scheme as the manifest
// ftrouting.ManifestOf builds: one resident shard, never evicted.
// NewSharded serves a shard manifest whose shards load and evict lazily
// under a memory budget. Both run the one pipeline, so they answer any
// batch bit-identically. Server implements http.Handler and is safe for
// concurrent requests.
type Server struct {
	tier
	par    int
	shards *shardCache
	// whole marks a New server: its healthz, stats and metrics keep the
	// shape of a server without shards.
	whole bool
}

// New serves a whole built or loaded scheme — the *ftrouting.ConnLabels,
// *DistLabels or *Router a LoadScheme call returned — as the single-shard
// manifest ftrouting.ManifestOf wraps it in. The scheme is neither
// copied nor rebuilt.
func New(scheme any, opts Options) (*Server, error) {
	m, err := ftrouting.ManifestOf(scheme)
	if err != nil {
		return nil, err
	}
	return newServer(m, opts, true)
}

// NewSharded wraps a loaded shard manifest in a Server: the shard-aware
// router mode of `ftroute serve` over a manifest. Shards load lazily on first
// touch and evict least-recently-used under Options.ShardBudgetBytes;
// each resident shard keeps its own prepared-fault-context LRU. Every
// batch is answered bit-identically to a server over the whole scheme —
// including error envelopes and cross-component pairs, which are
// answered from the manifest directory without loading any shard.
func NewSharded(m *ftrouting.Manifest, opts Options) (*Server, error) {
	return newServer(m, opts, false)
}

func newServer(m *ftrouting.Manifest, opts Options, whole bool) (*Server, error) {
	if opts.ContextCacheSize == 0 {
		opts.ContextCacheSize = DefaultContextCacheSize
	}
	if opts.ShardBudgetBytes == 0 {
		opts.ShardBudgetBytes = DefaultShardBudgetBytes
	}
	maxBytes, err := requestLimit(opts.MaxRequestBytes)
	if err != nil {
		return nil, err
	}
	s := &Server{
		par:    opts.Parallelism,
		shards: newShardCache(m, opts.ShardStore, opts.ShardBudgetBytes, opts.ContextCacheSize),
		whole:  whole,
	}
	s.init(m, maxBytes, s, opts.Obs)
	s.obs.cacheInstruments()
	if !whole {
		s.shards.loadTime, s.shards.residentGauge, s.shards.evictedCtr = s.obs.shardInstruments()
		s.shards.fetchTime, s.shards.retryCtr, s.shards.failCtr = s.obs.fetchInstruments()
		if o, ok := s.shards.store.(blob.Observable); ok {
			o.SetObserver(s.shards.observeFetch)
		}
	}
	return s, nil
}

// answer evaluates a planned batch from the shard cache: pin (loading if
// needed) every shard the plan touches, look up or prepare each shard's
// fault context, and run the plan's one ordered fan-out.
func (s *Server) answer(_ context.Context, ep *endpoint, plan *ftrouting.BatchPlan, _ []ftrouting.EdgeID, ro *reqObs) (any, *apiError) {
	st := ro.now()
	held, err := s.shards.acquireAll(plan.ShardIDs())
	if err != nil {
		// A transport-level fetch failure is the shard backend being
		// unreachable, not this replica being broken: answer with the
		// same typed upstream_failure envelope the proxy uses when its
		// replicas are down. Anything else — a corrupt or foreign blob,
		// a missing file — is a server-side fault.
		if errors.Is(err, blob.ErrFetch) {
			return nil, errorf(http.StatusBadGateway, api.CodeUpstream, "%v", err)
		}
		return nil, errorf(http.StatusInternalServerError, api.CodeInternal, "%v", err)
	}
	defer s.shards.releaseAll(held)
	ctxs := make(map[int]any, len(held))
	for _, entry := range held {
		entry := entry
		// The context key is the shard-restricted canonical fault set plus
		// the global distinct count (distance estimates scale with the
		// whole batch's |F|, which the restriction alone cannot see).
		key := faultKey(plan.ShardFaults(entry.id)) + "#" + strconv.Itoa(plan.DistinctFaults())
		ctx, hit, err := entry.contexts.get(key, func() (any, error) { return plan.PrepareShard(entry.shard) })
		if err != nil {
			return nil, fromBatchError(err)
		}
		ro.cacheResult(hit)
		ctxs[entry.id] = ctx
	}
	ro.stage(stageContext, st)
	st = ro.now()
	results, err := ep.eval(plan, ctxs, ftrouting.BatchOptions{Parallelism: s.par})
	if err != nil {
		return nil, fromBatchError(err)
	}
	ro.stage(stageEval, st)
	return results, nil
}

// health adds the manifest's component and shard counts.
func (s *Server) health(h *api.HealthResponse) {
	if !s.whole {
		h.Components, h.Shards = s.m.NumComponents(), s.m.NumShards()
	}
}

// stats reports the cache blocks: the "cache" block aggregates every
// shard's prepared-fault-context counters, and the "shards" block breaks
// residency, loads, evictions and context traffic out per shard.
func (s *Server) stats(resp *api.StatsResponse) {
	resp.Cache = s.shards.aggregateContextStats()
	if !s.whole {
		sh := s.shards.stats()
		resp.Shards = &sh
	}
}
