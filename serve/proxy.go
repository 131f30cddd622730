package serve

// The fan-out proxy tier: a stateless daemon that holds only a shard
// manifest's directory (never a shard payload), assigns shards to
// configured `ftroute serve` replicas balanced by shard bytes, splits
// each incoming batch with the manifest's PlanBatch machinery, forwards
// one sub-batch per touched shard to a replica holding it, and merges
// the answers back in pair order. Every tier speaks the identical wire
// protocol and the merge is byte-identical to a single daemon over the
// whole scheme — trivial cross-component pairs are answered from the
// directory without any upstream call, validation errors never leave the
// proxy, and Go's JSON encoding round-trips decoded replica results to
// the exact bytes a monolithic server would have written. Because the
// proxy serves the same API it consumes, proxies stack: a replica may
// itself be a proxy, or a monolithic daemon holding the whole scheme —
// anything whose /v1/healthz reports the manifest's scheme digest.

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"ftrouting"
	"ftrouting/internal/obs"
	"ftrouting/internal/parallel"
	"ftrouting/serve/api"
)

// ProxyOptions configures a Proxy.
type ProxyOptions struct {
	// Replication is how many replicas each shard is assigned to: 0
	// selects 1. Higher factors buy failover — a sub-batch retries on the
	// shard's other replicas when one fails at the transport level.
	Replication int
	// Parallelism bounds the concurrent upstream sub-requests per batch:
	// 0 uses GOMAXPROCS, 1 forwards sequentially.
	Parallelism int
	// MaxRequestBytes bounds a request body: 0 selects
	// DefaultMaxRequestBytes (the same default the replicas apply).
	MaxRequestBytes int64
	// HTTPClient issues the upstream requests; nil uses
	// http.DefaultClient.
	HTTPClient *http.Client
	// Obs configures metrics, request tracing and access logging; the
	// zero value disables the whole layer and keeps the proxy
	// byte-for-byte on its uninstrumented behavior.
	Obs Observability
}

// upstream is one configured replica: its typed client, the shards the
// placement assigned to it, and its traffic counters.
type upstream struct {
	client *api.Client
	shards []int
	// requests counts sub-batches sent, errors the structured rejections
	// answered, failures the transport-level losses that moved a
	// sub-batch to another replica (or exhausted the assignment).
	requests, errors, failures atomic.Uint64
	// Optional instruments (nil-safe, resolved at construction):
	// sub-request latency, structured rejections, transport failovers.
	lat             *obs.Histogram
	errCtr, failCtr *obs.Counter
}

// Proxy fans batches out over shard-affine replicas. It implements
// http.Handler with the exact endpoint surface of a Server and is safe
// for concurrent requests.
type Proxy struct {
	tier
	par int

	ups []*upstream
	// assign[shard] lists the replica indices holding the shard, in
	// placement order; rr rotates the starting replica per sub-request so
	// a replication group shares its load.
	assign [][]int
	rr     atomic.Uint64
}

// PlanPlacement assigns shards to replicas balanced by shard bytes with
// ftrouting.PlaceBalanced: shards in decreasing byte order (ties to the
// lower id) each go to the replication least-loaded replicas (ties to the
// lower index). The result maps shard id to its replica indices and is
// deterministic in its inputs. Replication is clamped to the replica
// count.
func PlanPlacement(shardBytes []int64, replicas, replication int) [][]int {
	return ftrouting.PlaceBalanced(shardBytes, replicas, replication)
}

// NewProxy builds the fan-out tier over a loaded manifest and the base
// URLs of its replicas. Every replica's /v1/healthz is verified before
// any traffic: it must report the manifest's scheme kind, digest, fault
// bound and graph shape, so a replica serving a foreign or incompatible
// build is rejected at startup rather than corrupting merged answers.
func NewProxy(ctx context.Context, m *ftrouting.Manifest, replicas []string, opts ProxyOptions) (*Proxy, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("serve: proxy needs at least one replica")
	}
	if opts.Replication == 0 {
		opts.Replication = 1
	}
	if opts.Replication < 1 || opts.Replication > len(replicas) {
		return nil, fmt.Errorf("serve: replication factor %d needs 1..%d (the replica count)",
			opts.Replication, len(replicas))
	}
	maxBytes, err := requestLimit(opts.MaxRequestBytes)
	if err != nil {
		return nil, err
	}
	p := &Proxy{par: opts.Parallelism}
	p.init(m, maxBytes, p, opts.Obs)
	for _, base := range replicas {
		u := &upstream{client: api.New(base, api.WithHTTPClient(opts.HTTPClient))}
		u.lat, u.errCtr, u.failCtr = p.obs.upstreamInstruments(base)
		p.ups = append(p.ups, u)
	}
	for i, u := range p.ups {
		if err := p.verifyReplica(ctx, u.client); err != nil {
			return nil, fmt.Errorf("serve: replica %d (%s): %w", i, u.client.BaseURL(), err)
		}
	}
	bytes := make([]int64, m.NumShards())
	for id := range bytes {
		bytes[id] = m.ShardBytes(id)
	}
	p.assign = PlanPlacement(bytes, len(replicas), opts.Replication)
	for id, reps := range p.assign {
		for _, rep := range reps {
			p.ups[rep].shards = append(p.ups[rep].shards, id)
		}
	}
	return p, nil
}

// verifyReplica checks one upstream's /v1/healthz against the manifest.
func (p *Proxy) verifyReplica(ctx context.Context, c *api.Client) error {
	h, err := c.Healthz(ctx)
	if err != nil {
		return err
	}
	switch {
	case h.Status != "ok":
		return fmt.Errorf("reports status %q", h.Status)
	case h.Kind != p.kind:
		return fmt.Errorf("serves a %s scheme; the manifest holds a %s scheme", h.Kind, p.kind)
	case h.Digest != fmt.Sprintf("%08x", p.m.Digest()):
		return fmt.Errorf("serves scheme digest %s; the manifest's digest is %08x (foreign build)",
			h.Digest, p.m.Digest())
	case h.FaultBound != p.m.FaultBound():
		return fmt.Errorf("reports fault bound %d; the manifest's bound is %d", h.FaultBound, p.m.FaultBound())
	case h.Vertices != p.m.Graph().N() || h.Edges != p.m.Graph().M():
		return fmt.Errorf("reports a %d-vertex %d-edge graph; the manifest records %d vertices, %d edges",
			h.Vertices, h.Edges, p.m.Graph().N(), p.m.Graph().M())
	}
	return nil
}

// Placement returns each replica's assigned shard ids, in replica order.
func (p *Proxy) Placement() [][]int {
	out := make([][]int, len(p.ups))
	for i, u := range p.ups {
		out[i] = append([]int(nil), u.shards...)
	}
	return out
}

// subAnswer is one sub-batch's outcome: the endpoint's result column
// (matching the sub-batch's pairs) or a remapped error. up records the
// answering replica's fan-out timing (and its own echoed breakdown under
// ?debug=timing) for the merged timing envelope.
type subAnswer struct {
	results any
	err     *apiError
	up      api.UpstreamTiming
}

// answer is the proxy's backend: vertex checks via the plan first, so
// validation failures never leave the proxy and every error a single
// daemon would produce is reproduced byte-identically; then one
// sub-batch per touched shard fans out, and the columns merge back in
// pair order.
func (p *Proxy) answer(ctx context.Context, ep *endpoint, plan *ftrouting.BatchPlan, canon []ftrouting.EdgeID, ro *reqObs) (any, *apiError) {
	if err := plan.FirstPairError(); err != nil {
		return nil, fromBatchError(err)
	}
	subs := plan.SubBatches()
	answers := make([]subAnswer, len(subs))
	st := ro.now()
	parallel.ForEach(p.par, len(subs), func(i int) error {
		answers[i] = p.forwardSub(ctx, ep, canon, subs[i], ro)
		return nil // errors merge below, under batch-order precedence
	})
	ro.stage(stageEval, st)
	// Collect the fan-out timings after the join — never concurrently —
	// in sub-batch (shard) order so the echo is deterministic.
	for i := range answers {
		if answers[i].err == nil && answers[i].up.Replica != "" {
			ro.addUpstream(answers[i].up)
		}
	}
	if e := pickSubError(answers); e != nil {
		return nil, e
	}
	st = ro.now()
	results, e := ep.merge(plan, subs, answers)
	if e != nil {
		return nil, e
	}
	ro.stage(stageMerge, st)
	return results, nil
}

// forwardSub sends one sub-batch to the replicas assigned to its shard,
// starting at a rotating offset so a replication group shares load, and
// failing over on transport errors. A structured rejection from a
// replica that answered is authoritative — the request reached a healthy
// server and was refused — so it is returned (remapped to batch indices)
// rather than retried. When every assigned replica fails at the
// transport level the sub-batch reports the typed upstream-failure
// envelope.
func (p *Proxy) forwardSub(ctx context.Context, ep *endpoint, canon []ftrouting.EdgeID, sub ftrouting.SubBatch, ro *reqObs) subAnswer {
	req := api.FromBatch(ftrouting.QueryBatch{Pairs: sub.Pairs, Faults: canon})
	if ro != nil {
		// Propagate the trace on every fan-out hop, and the timing opt-in
		// so stacked tiers echo their own breakdowns.
		ctx = api.WithTrace(ctx, ro.trace)
		if ro.debug {
			ctx = api.WithDebugTiming(ctx)
		}
	}
	reps := p.assign[sub.Shard]
	start := int(p.rr.Add(1)-1) % len(reps)
	var lastErr error
	for i := 0; i < len(reps); i++ {
		u := p.ups[reps[(start+i)%len(reps)]]
		u.requests.Add(1)
		t0 := time.Now()
		results, echoed, err := ep.query(ctx, u.client, req)
		d := time.Since(t0)
		u.lat.Observe(d)
		if err == nil {
			return subAnswer{results: results, up: api.UpstreamTiming{
				Shard:   sub.Shard,
				Replica: u.client.BaseURL(),
				Nanos:   int64(d),
				Timing:  echoed,
			}}
		}
		if ce, ok := err.(*api.Error); ok {
			u.errors.Add(1)
			u.errCtr.Inc()
			return subAnswer{err: remapSubError(ce, sub)}
		}
		u.failures.Add(1)
		u.failCtr.Inc()
		lastErr = err
	}
	p.obs.badGatewayInc()
	return subAnswer{err: errorf(http.StatusBadGateway, api.CodeUpstream,
		"shard %d: every assigned replica failed: %v", sub.Shard, lastErr)}
}

// remapSubError rewrites a replica's sub-batch-scoped error onto the
// original batch: the pair index (and the "batch pair N:" message
// prefix) translate through the sub-batch's index map; unscoped errors
// pass through untouched.
func remapSubError(ce *api.Error, sub ftrouting.SubBatch) *apiError {
	e := fromClientError(ce)
	if e.pair < 0 || e.pair >= len(sub.Indices) {
		return e
	}
	local := e.pair
	e.pair = sub.Indices[local]
	if suffix, ok := strings.CutPrefix(e.msg, fmt.Sprintf("batch pair %d: ", local)); ok {
		e.msg = fmt.Sprintf("batch pair %d: %s", e.pair, suffix)
	}
	return e
}

// pickSubError selects the error to surface when sub-batches failed,
// mirroring a single daemon's precedence as closely as the fan-out
// allows: an unscoped structured rejection first (a monolithic server
// surfaces those before any pair runs), then the pair-scoped rejection
// with the lowest batch index (the fan-out's lowest-index rule), then —
// with no authoritative answer to prefer — the upstream failure of the
// lowest shard id.
func pickSubError(answers []subAnswer) *apiError {
	var unscoped, scoped, upstreamE *apiError
	for i := range answers {
		e := answers[i].err
		if e == nil {
			continue
		}
		switch {
		case e.code == api.CodeUpstream:
			if upstreamE == nil {
				upstreamE = e
			}
		case e.pair >= 0:
			if scoped == nil || e.pair < scoped.pair {
				scoped = e
			}
		default:
			if unscoped == nil {
				unscoped = e
			}
		}
	}
	if unscoped != nil {
		return unscoped
	}
	if scoped != nil {
		return scoped
	}
	return upstreamE
}

// health adds the manifest's component and shard counts and the
// replica count.
func (p *Proxy) health(h *api.HealthResponse) {
	h.Components, h.Shards, h.Replicas = p.m.NumComponents(), p.m.NumShards(), len(p.ups)
}

// stats adds one upstream row per replica. The cache blocks stay zero —
// the proxy holds no labels and prepares no fault contexts.
func (p *Proxy) stats(resp *api.StatsResponse) {
	for _, u := range p.ups {
		resp.Upstreams = append(resp.Upstreams, api.UpstreamStats{
			Replica:  u.client.BaseURL(),
			Shards:   append([]int(nil), u.shards...),
			Requests: u.requests.Load(),
			Errors:   u.errors.Load(),
			Failures: u.failures.Load(),
		})
	}
}
