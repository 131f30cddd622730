package ftrouting

// Batch query subsystem: a serving deployment issues many (s,t) queries
// against one fixed fault set (a snapshot of the failed links), so the
// per-query cost splits into fault-set preparation — decoding fault
// labels, building cut/sketch structures, per-scale state — and per-pair
// evaluation. PrepareFaults runs the first part once into a reusable
// fault context; the *Batch methods partition the pair list across the
// internal/parallel pool, preserve input order in the result slice, and
// report the error of the lowest-indexed failing pair (first-error
// semantics). Batch results are bit-identical to a sequential loop of
// single queries at any parallelism.

import (
	"errors"
	"fmt"
	"sort"

	"ftrouting/internal/codec"
	"ftrouting/internal/core"
	"ftrouting/internal/distlabel"
	"ftrouting/internal/parallel"
	"ftrouting/internal/route"
)

// Pair is one (source, target) query.
type Pair struct {
	S, T int32
}

// QueryBatch is a list of pair queries evaluated against one fault set.
// Duplicate pairs are answered independently; duplicate fault ids count
// once toward the fault bound.
type QueryBatch struct {
	Pairs  []Pair
	Faults []EdgeID
}

// BatchOptions configures batch evaluation.
type BatchOptions struct {
	// Parallelism bounds the worker goroutines evaluating pairs: 0 uses
	// GOMAXPROCS, 1 evaluates sequentially. Results are bit-identical at
	// any parallelism.
	Parallelism int
}

// ErrorCode is a stable machine-readable classification of a batch
// validation failure. Codes are part of the public API: serving layers
// (package serve, `ftroute serve`) map them onto wire protocols instead
// of parsing formatted error text, so their values never change.
type ErrorCode string

const (
	// CodeVertexRange: a pair endpoint is outside [0, n).
	CodeVertexRange ErrorCode = "vertex_out_of_range"
	// CodeFaultRange: a fault edge id is outside [0, m).
	CodeFaultRange ErrorCode = "fault_id_out_of_range"
	// CodeFaultBound: the distinct faults exceed the scheme's bound f.
	CodeFaultBound ErrorCode = "fault_bound_exceeded"
	// CodeInternal classifies errors that carry no QueryError (decoder
	// failures and other non-validation errors). It is returned by CodeOf,
	// never attached to a QueryError.
	CodeInternal ErrorCode = "internal"
)

// QueryError is a batch-API validation failure. It carries a stable Code
// and, when the failure is scoped to one pair of a batch, the index of the
// lowest-indexed failing pair; fault-set failures have Pair == -1.
type QueryError struct {
	Code ErrorCode
	Pair int
	msg  string
}

// Error returns the formatted message (unchanged from the pre-typed
// errors, so existing text matching keeps working).
func (e *QueryError) Error() string { return e.msg }

// CodeOf extracts the stable code from a batch-API error chain, or
// CodeInternal when err carries no QueryError. A nil err yields "".
func CodeOf(err error) ErrorCode {
	if err == nil {
		return ""
	}
	var qe *QueryError
	if errors.As(err, &qe) {
		return qe.Code
	}
	return CodeInternal
}

// PairIndexOf extracts the failing pair index from a batch-API error
// chain, or -1 when the error is not scoped to a pair.
func PairIndexOf(err error) int {
	var qe *QueryError
	if errors.As(err, &qe) {
		return qe.Pair
	}
	return -1
}

// checkVertex validates a pair endpoint against the graph.
func checkVertex(name string, v int32, n int) error {
	if v < 0 || int(v) >= n {
		return &QueryError{Code: CodeVertexRange, Pair: -1,
			msg: fmt.Sprintf("ftrouting: vertex %s=%d out of range [0,%d)", name, v, n)}
	}
	return nil
}

// checkFaults validates fault edge ids and, when bound >= 0, enforces the
// scheme's fault bound f on the number of distinct faults.
func checkFaults(faults []EdgeID, m int, bound int) error {
	for _, id := range faults {
		if id < 0 || int(id) >= m {
			return &QueryError{Code: CodeFaultRange, Pair: -1,
				msg: fmt.Sprintf("ftrouting: fault edge id %d out of range [0,%d)", id, m)}
		}
	}
	if bound < 0 || len(faults) <= bound {
		return nil // no bound, or too few ids to exceed it
	}
	distinct := make(map[EdgeID]bool, len(faults))
	for _, id := range faults {
		distinct[id] = true
	}
	if len(distinct) > bound {
		return &QueryError{Code: CodeFaultBound, Pair: -1,
			msg: fmt.Sprintf("ftrouting: %d distinct faults exceed the scheme's fault bound f=%d", len(distinct), bound)}
	}
	return nil
}

// checkQuery applies the batch path's range checks to one single-pair
// query: fault ids first, then the endpoints. The fault bound is not
// enforced here — the single-pair facade never has.
func checkQuery(g *Graph, s, t int32, faults []EdgeID) error {
	if err := checkFaults(faults, g.M(), -1); err != nil {
		return err
	}
	if err := checkVertex("s", s, g.N()); err != nil {
		return err
	}
	return checkVertex("t", t, g.N())
}

// CanonicalFaults returns the canonical form of a fault list: the
// distinct edge ids in ascending order. Decoding depends only on the
// fault *set* (the decoders deduplicate and are order-insensitive), so
// two lists with equal canonical forms are interchangeable — this is the
// cache key a serving layer uses to reuse prepared fault contexts across
// requests that name the same failures in different orders.
func CanonicalFaults(faults []EdgeID) []EdgeID {
	if len(faults) == 0 {
		return nil
	}
	out := make([]EdgeID, len(faults))
	copy(out, faults)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 1
	for _, id := range out[1:] {
		if id != out[w-1] {
			out[w] = id
			w++
		}
	}
	return out[:w]
}

// forEachPair fans the pair list out across the worker pool, writing
// results in input order; the returned error is the one of the
// lowest-indexed failing pair, tagged with its index.
func forEachPair[T any](pairs []Pair, parallelism int, eval func(Pair) (T, error)) ([]T, error) {
	return forEachPairIndexed(pairs, parallelism, func(_ int, p Pair) (T, error) {
		return eval(p)
	})
}

// forEachPairIndexed is forEachPair with the pair's input index passed to
// the evaluator (the shard planner dispatches per index). Error wrapping
// and ordering are identical, so a planned batch reports the exact error
// a monolithic batch reports. Pairs are handed to the workers in
// contiguous chunks (parallel.ForEachChunked): per-pair evaluation against
// a prepared context is cheap enough that per-item claim traffic and
// per-item state would dominate, and chunked loops keep each worker's
// pooled decoder scratch hot across its whole run.
func forEachPairIndexed[T any](pairs []Pair, parallelism int, eval func(int, Pair) (T, error)) ([]T, error) {
	out := make([]T, len(pairs))
	err := parallel.ForEachChunked(parallelism, len(pairs), func(i int) error {
		v, err := eval(i, pairs[i])
		if err != nil {
			return wrapPairError(i, err)
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// wrapPairError tags a per-pair error with its batch index. The inner
// error carries the package prefix already; a typed validation error
// keeps its code and gains the pair index. Every layer that reports a
// pair-scoped batch error (the fan-out here, a proxy validating a plan
// before forwarding) wraps through this one function so the error text
// is identical at every tier.
func wrapPairError(i int, err error) error {
	var qe *QueryError
	if errors.As(err, &qe) {
		return &QueryError{Code: qe.Code, Pair: i,
			msg: fmt.Sprintf("batch pair %d: %s", i, qe.msg)}
	}
	return fmt.Errorf("batch pair %d: %w", i, err)
}

// ConnFaultContext is a fault set preprocessed against a connectivity
// labeling: fault edge labels are assembled and grouped per component,
// and each component's decoder state (GF(2) columns for the cut scheme,
// component tree and cancelled sketches for the sketch scheme) is built
// once. Safe for concurrent Connected calls.
type ConnFaultContext struct {
	c      *ConnLabels
	cut    map[int32]*core.CutFaultContext
	sketch map[int32]*core.SketchFaultContext
}

// PrepareFaults preprocesses a fault set for repeated connectivity
// queries. For the cut-based scheme the number of distinct faults must
// not exceed the MaxFaults bound the labels were sized for; the
// sketch-based labels are f-independent.
func (c *ConnLabels) PrepareFaults(faults []EdgeID) (*ConnFaultContext, error) {
	bound := -1
	if c.opts.Scheme == CutBased {
		bound = c.opts.MaxFaults
	}
	if err := checkFaults(faults, c.g.M(), bound); err != nil {
		return nil, err
	}
	// Assemble the edge labels once and group them per component in input
	// order — exactly the restriction Query applies per pair (a partial
	// scheme ignores faults outside its components, as Connected does).
	byComp := make(map[int32][]EdgeLabel)
	for _, id := range faults {
		if !c.holds(c.g.Edge(id).U) {
			continue
		}
		l := c.EdgeLabel(id)
		byComp[l.comp] = append(byComp[l.comp], l)
	}
	ctx := &ConnFaultContext{
		c:      c,
		cut:    make(map[int32]*core.CutFaultContext),
		sketch: make(map[int32]*core.SketchFaultContext),
	}
	for ci, group := range byComp {
		switch c.opts.Scheme {
		case CutBased:
			fl := make([]core.CutEdgeLabel, len(group))
			for i, l := range group {
				fl[i] = l.cut
			}
			ctx.cut[ci] = core.PrepareCutFaults(fl)
		case SketchBased:
			fl := make([]core.SketchEdgeLabel, len(group))
			for i, l := range group {
				fl[i] = l.sketch
			}
			prepared, err := c.sketches[ci].PrepareFaults(fl, 0)
			if err != nil {
				return nil, fmt.Errorf("ftrouting: component %d: %w", ci, err)
			}
			ctx.sketch[ci] = prepared
		}
	}
	return ctx, nil
}

// Connected answers one pair against the prepared fault set,
// bit-identically to ConnLabels.Connected with the same faults.
func (x *ConnFaultContext) Connected(s, t int32) (bool, error) {
	c := x.c
	if err := checkVertex("s", s, c.g.N()); err != nil {
		return false, err
	}
	if err := checkVertex("t", t, c.g.N()); err != nil {
		return false, err
	}
	if err := c.checkHeld(s, t); err != nil {
		return false, err
	}
	sv, tv := c.VertexLabel(s), c.VertexLabel(t)
	if sv.comp != tv.comp {
		return false, nil
	}
	switch c.opts.Scheme {
	case CutBased:
		ctx, ok := x.cut[sv.comp]
		if !ok {
			return true, nil // no faults in this component: tree intact
		}
		return ctx.Decode(sv.cut, tv.cut), nil
	case SketchBased:
		ctx, ok := x.sketch[sv.comp]
		if !ok {
			return true, nil
		}
		v, err := ctx.Decode(sv.sketch, tv.sketch, false)
		if err != nil {
			return false, err
		}
		return v.Connected, nil
	}
	return false, fmt.Errorf("ftrouting: unknown scheme")
}

// ConnectedBatch evaluates a pair list against the prepared fault set,
// fanning out across the worker pool. Results are in pair order.
func (x *ConnFaultContext) ConnectedBatch(pairs []Pair, opts BatchOptions) ([]bool, error) {
	return forEachPair(pairs, opts.Parallelism, func(p Pair) (bool, error) {
		return x.Connected(p.S, p.T)
	})
}

// ConnectedBatch evaluates every pair of the batch against its fault set,
// preparing the fault structures once and fanning the pairs out across
// the worker pool. Results are in pair order and bit-identical to a
// sequential loop of Connected calls at any parallelism. An empty pair
// list returns (nil, nil) without touching the fault set.
func (c *ConnLabels) ConnectedBatch(b QueryBatch, opts BatchOptions) ([]bool, error) {
	if len(b.Pairs) == 0 {
		return nil, nil
	}
	ctx, err := c.PrepareFaults(b.Faults)
	if err != nil {
		return nil, err
	}
	return ctx.ConnectedBatch(b.Pairs, opts)
}

// DistFaultContext is a fault set preprocessed against a distance
// labeling: PrepareFaults counts the distinct faults, and each instance's
// fault restriction and connectivity decoder state are built once, by the
// first Estimate whose scale walk reaches that instance, and shared by
// every later one. Safe for concurrent Estimate calls.
type DistFaultContext struct {
	d     *DistLabels
	inner *distlabel.FaultContext
}

// PrepareFaults preprocesses a fault set for repeated distance queries.
// The number of distinct faults must not exceed the fault bound f the
// labels were built for.
func (d *DistLabels) PrepareFaults(faults []EdgeID) (*DistFaultContext, error) {
	return d.prepareFaults(faults, -1)
}

// prepareFaults is PrepareFaults with the distinct-fault count of the
// estimate formula (4k-1)(|F|+1)·2^i supplied by the caller; a negative
// count derives it from the fault list. The shard planner passes the
// whole batch's |F|, which a shard-restricted fault list cannot
// reconstruct.
func (d *DistLabels) prepareFaults(faults []EdgeID, distinct int) (*DistFaultContext, error) {
	g := d.inner.Graph()
	if err := checkFaults(faults, g.M(), d.inner.F()); err != nil {
		return nil, err
	}
	if distinct < 0 {
		distinct = distlabel.DistinctFaults(g, faults, d.inner.Scales())
	}
	// The context keeps its ids, so it gets its own copy.
	ids := append([]EdgeID(nil), faults...)
	return &DistFaultContext{d: d, inner: d.inner.PrepareFaults(ids, distinct)}, nil
}

// Estimate answers one pair against the prepared fault set,
// bit-identically to DistLabels.Estimate with the same faults.
func (x *DistFaultContext) Estimate(s, t int32) (int64, error) {
	g := x.d.inner.Graph()
	if err := checkVertex("s", s, g.N()); err != nil {
		return 0, err
	}
	if err := checkVertex("t", t, g.N()); err != nil {
		return 0, err
	}
	return x.inner.Decode(s, t)
}

// EstimateBatch evaluates a pair list against the prepared fault set,
// fanning out across the worker pool. Results are in pair order.
func (x *DistFaultContext) EstimateBatch(pairs []Pair, opts BatchOptions) ([]int64, error) {
	return forEachPair(pairs, opts.Parallelism, func(p Pair) (int64, error) {
		return x.Estimate(p.S, p.T)
	})
}

// EstimateBatch evaluates every pair of the batch against its fault set,
// preparing the fault structures once and fanning the pairs out across
// the worker pool. Results are in pair order and bit-identical to a
// sequential loop of Estimate calls at any parallelism. An empty pair
// list returns (nil, nil) without touching the fault set.
func (d *DistLabels) EstimateBatch(b QueryBatch, opts BatchOptions) ([]int64, error) {
	if len(b.Pairs) == 0 {
		return nil, nil
	}
	ctx, err := d.PrepareFaults(b.Faults)
	if err != nil {
		return nil, err
	}
	return ctx.EstimateBatch(b.Pairs, opts)
}

// RouteFaultContext is a fault set preprocessed against a router. The
// fault-tolerant model (Route) discovers faults by bumping into them, so
// only the fault set itself is shared; the forbidden-set model
// (RouteForbidden) additionally shares each instance's fault restriction
// and connectivity decoder state, built by the first route whose scale
// walk reaches that instance. Safe for concurrent Route/RouteForbidden
// calls.
type RouteFaultContext struct {
	r         *Router
	forbidden *route.ForbiddenContext
	// faults is F as the set that the unknown-fault router tests.
	faults EdgeSet
}

// PrepareFaults preprocesses a fault set for repeated routing queries.
// The number of distinct faults must not exceed the fault bound f the
// router was built for.
func (r *Router) PrepareFaults(faults []EdgeID) (*RouteFaultContext, error) {
	g := r.inner.Graph()
	if err := checkFaults(faults, g.M(), r.inner.F()); err != nil {
		return nil, err
	}
	// The context keeps its ids, so it gets its own copy.
	ids := append([]EdgeID(nil), faults...)
	return &RouteFaultContext{r: r, forbidden: r.inner.PrepareForbidden(ids), faults: NewEdgeSet(ids...)}, nil
}

// Route routes one pair under the prepared (unknown-fault) set,
// bit-identically to Router.Route with the same faults.
func (x *RouteFaultContext) Route(s, t int32) (RouteResult, error) {
	g := x.r.inner.Graph()
	if err := checkVertex("s", s, g.N()); err != nil {
		return RouteResult{}, err
	}
	if err := checkVertex("t", t, g.N()); err != nil {
		return RouteResult{}, err
	}
	return x.r.inner.RouteFT(s, t, x.faults)
}

// PrepareForbidden does nothing and returns nil. PrepareFaults already
// builds everything the forbidden-set model shares up front; each
// instance's restriction and decoder state are built by the first route
// that reaches it.
func (x *RouteFaultContext) PrepareForbidden() error { return nil }

// RouteForbidden routes one pair under the prepared known fault set,
// bit-identically to Router.RouteForbidden with the same faults.
func (x *RouteFaultContext) RouteForbidden(s, t int32) (RouteResult, error) {
	g := x.r.inner.Graph()
	if err := checkVertex("s", s, g.N()); err != nil {
		return RouteResult{}, err
	}
	if err := checkVertex("t", t, g.N()); err != nil {
		return RouteResult{}, err
	}
	return x.forbidden.Route(s, t)
}

// RouteBatch routes a pair list under the prepared (unknown-fault) set,
// fanning out across the worker pool. Results are in pair order.
func (x *RouteFaultContext) RouteBatch(pairs []Pair, opts BatchOptions) ([]RouteResult, error) {
	return forEachPair(pairs, opts.Parallelism, func(p Pair) (RouteResult, error) {
		return x.Route(p.S, p.T)
	})
}

// RouteForbiddenBatch routes a pair list under the prepared known fault
// set, fanning out across the worker pool. Results are in pair order.
func (x *RouteFaultContext) RouteForbiddenBatch(pairs []Pair, opts BatchOptions) ([]RouteResult, error) {
	return forEachPair(pairs, opts.Parallelism, func(p Pair) (RouteResult, error) {
		return x.RouteForbidden(p.S, p.T)
	})
}

// RouteBatch routes every pair of the batch under the unknown-fault model
// (Theorem 5.8), fanning the pairs out across the worker pool. Results
// are in pair order and bit-identical to a sequential loop of Route calls
// at any parallelism. An empty pair list returns (nil, nil) without
// touching the fault set.
func (r *Router) RouteBatch(b QueryBatch, opts BatchOptions) ([]RouteResult, error) {
	if len(b.Pairs) == 0 {
		return nil, nil
	}
	ctx, err := r.PrepareFaults(b.Faults)
	if err != nil {
		return nil, err
	}
	return ctx.RouteBatch(b.Pairs, opts)
}

// RouteForbiddenBatch routes every pair of the batch under the known-fault
// model (Theorem 5.3), restricting F to and preparing each instance the
// walks reach once, and fanning the pairs out across the worker pool.
// Results are in pair order and bit-identical to a sequential loop of
// RouteForbidden calls at any parallelism. An empty pair list returns
// (nil, nil) without touching the fault set.
func (r *Router) RouteForbiddenBatch(b QueryBatch, opts BatchOptions) ([]RouteResult, error) {
	if len(b.Pairs) == 0 {
		return nil, nil
	}
	ctx, err := r.PrepareFaults(b.Faults)
	if err != nil {
		return nil, err
	}
	return ctx.RouteForbiddenBatch(b.Pairs, opts)
}

// Shard-aware batch planning. A QueryBatch against a sharded scheme
// splits by component id: every pair whose endpoints share a component
// routes to the shard holding it, cross-component pairs take the
// trivially-correct answer (disconnected / Unreachable / undelivered)
// without touching any shard, and the fault set restricts per shard —
// the per-component label tagging of Section 3 makes the split lossless.
// PlanBatch validates the fault set globally with the exact checks (and
// errors) of the monolithic Prepare paths; the executors then run ONE
// ordered fan-out over the original pair list, dispatching each index to
// its shard's prepared context, so results, error choice and error text
// are bit-identical to the monolithic batch at any parallelism.

// Pair classifications beyond a shard id.
const (
	// pairTrivial: endpoints in different components; answered without a
	// shard.
	pairTrivial = -1
	// pairInvalid: an endpoint out of range; the executor re-runs the
	// vertex checks to produce the identical per-pair error.
	pairInvalid = -2
)

// BatchPlan routes each pair of one QueryBatch to its shard.
type BatchPlan struct {
	m         *Manifest
	pairs     []Pair
	pairShard []int32
	shardIDs  []int
	faults    [][]EdgeID // indexed by shard id; nil for untouched shards
	distinct  int
}

// PlanBatch validates the batch's fault set against the scheme bounds
// (identically to the monolithic PrepareFaults paths) and routes each
// pair. An empty pair list plans to nothing, mirroring the batch API's
// empty-batch semantics (the fault set is not even validated).
func (m *Manifest) PlanBatch(b QueryBatch) (*BatchPlan, error) {
	p := &BatchPlan{m: m, pairs: b.Pairs}
	if len(b.Pairs) == 0 {
		return p, nil
	}
	if err := checkFaults(b.Faults, m.g.M(), m.FaultBound()); err != nil {
		return nil, err
	}
	n := m.g.N()
	p.pairShard = make([]int32, len(b.Pairs))
	touched := make([]bool, len(m.shards))
	for i, pr := range b.Pairs {
		if pr.S < 0 || int(pr.S) >= n || pr.T < 0 || int(pr.T) >= n {
			p.pairShard[i] = pairInvalid
			continue
		}
		cs, ct := m.comp[pr.S], m.comp[pr.T]
		if cs != ct {
			p.pairShard[i] = pairTrivial
			continue
		}
		shard := m.shard[cs]
		p.pairShard[i] = shard
		touched[shard] = true
	}
	for id, hit := range touched {
		if hit {
			p.shardIDs = append(p.shardIDs, id)
		}
	}
	// Restrict the fault list per shard, preserving input order and
	// duplicates: the per-component grouping the monolithic PrepareFaults
	// paths apply sees the identical sequences. Only shards that answer a
	// pair need a restriction (fault-only shards are never decoded).
	p.faults = make([][]EdgeID, len(m.shards))
	for _, id := range b.Faults {
		shard := m.shard[m.comp[m.g.Edge(id).U]]
		if !touched[shard] {
			continue
		}
		if p.faults[shard] == nil {
			p.faults[shard] = make([]EdgeID, 0, len(b.Faults))
		}
		p.faults[shard] = append(p.faults[shard], id)
	}
	if m.kind == codec.KindDistLabels {
		// Only the distance estimate formula consumes |F|.
		p.distinct = distlabel.DistinctFaults(m.g, b.Faults, len(m.clusterCounts))
	}
	return p, nil
}

// ShardIDs returns the shards the plan needs prepared contexts for, in
// ascending order.
func (p *BatchPlan) ShardIDs() []int { return append([]int(nil), p.shardIDs...) }

// ShardFaults returns the batch's fault list restricted to one shard's
// components, in input order with duplicates preserved.
func (p *BatchPlan) ShardFaults(id int) []EdgeID {
	if id < 0 || id >= len(p.faults) {
		return nil
	}
	return append([]EdgeID(nil), p.faults[id]...)
}

// DistinctFaults returns the global distinct-fault count of the batch
// (the |F| of the distance estimate formula).
func (p *BatchPlan) DistinctFaults() int { return p.distinct }

// NumPairs returns the planned batch's pair count.
func (p *BatchPlan) NumPairs() int { return len(p.pairs) }

// Pair returns the planned batch's i-th pair.
func (p *BatchPlan) Pair(i int) Pair { return p.pairs[i] }

// SubBatch is one shard's slice of a planned batch: the pairs routed to
// that shard, alongside their indices in the original pair list. A
// fan-out tier forwards each sub-batch to a replica holding the shard —
// together with the batch's FULL fault list, so the replica re-derives
// the per-shard restriction and the global distinct-fault count itself,
// exactly as a whole-batch plan would — and scatters the answers back by
// Indices. Trivial and invalid pairs appear in no sub-batch; see
// TrivialPairs and FirstPairError.
type SubBatch struct {
	// Shard is the shard id every pair of this sub-batch routes to.
	Shard int
	// Indices[j] is the position of Pairs[j] in the planned batch.
	Indices []int
	// Pairs are the sub-batch's queries, in original batch order.
	Pairs []Pair
}

// SubBatches splits the planned batch into one SubBatch per touched
// shard, in ascending shard order. Within each sub-batch, pairs keep
// their original relative order, so a replica evaluating the sub-batch
// reports per-pair errors for the lowest original index first.
func (p *BatchPlan) SubBatches() []SubBatch {
	byShard := make(map[int]*SubBatch, len(p.shardIDs))
	out := make([]SubBatch, len(p.shardIDs))
	for i, id := range p.shardIDs {
		out[i].Shard = id
		byShard[id] = &out[i]
	}
	for i, pr := range p.pairs {
		if p.pairShard[i] < 0 {
			continue
		}
		sb := byShard[int(p.pairShard[i])]
		sb.Indices = append(sb.Indices, i)
		sb.Pairs = append(sb.Pairs, pr)
	}
	return out
}

// TrivialPairs returns the indices of the batch's cross-component pairs:
// the ones every tier answers from the directory alone — false for
// connectivity, Unreachable for distance, TrivialRouteResult for routing
// — without touching any shard.
func (p *BatchPlan) TrivialPairs() []int {
	var out []int
	for i, s := range p.pairShard {
		if s == pairTrivial {
			out = append(out, i)
		}
	}
	return out
}

// FirstPairError returns the error the plan's executors would report
// before any shard work: the vertex-range error of the lowest-indexed
// invalid pair, wrapped exactly as the batch fan-out wraps it (same
// code, index and text), or nil when every pair is valid. A fan-out
// tier calls this before forwarding sub-batches so validation failures
// never leave the proxy.
func (p *BatchPlan) FirstPairError() error {
	n := p.m.g.N()
	for i, s := range p.pairShard {
		if s != pairInvalid {
			continue
		}
		pr := p.pairs[i]
		if err := checkVertex("s", pr.S, n); err != nil {
			return wrapPairError(i, err)
		}
		if err := checkVertex("t", pr.T, n); err != nil {
			return wrapPairError(i, err)
		}
	}
	return nil
}

// PrepareShard prepares one shard's fault context for this plan's fault
// set: a *ConnFaultContext, *DistFaultContext or *RouteFaultContext
// matching the manifest kind, ready for the plan's executors. Distance
// contexts receive the plan's global distinct-fault count so per-shard
// estimates stay bit-identical to whole-scheme estimates.
func (p *BatchPlan) PrepareShard(sh *Shard) (any, error) {
	if sh.m.digest != p.m.digest || sh.m.kind != p.m.kind {
		return nil, fmt.Errorf("ftrouting: shard %d belongs to a different scheme", sh.id)
	}
	var faults []EdgeID
	if sh.id < len(p.faults) {
		faults = p.faults[sh.id]
	}
	switch scheme := sh.scheme.(type) {
	case *ConnLabels:
		return scheme.PrepareFaults(faults)
	case *DistLabels:
		return scheme.prepareFaults(faults, p.distinct)
	case *Router:
		return scheme.PrepareFaults(faults)
	}
	return nil, fmt.Errorf("ftrouting: unsupported shard scheme %T", sh.scheme)
}

// execPlan runs the single ordered fan-out over the original pair list:
// invalid pairs re-run the vertex checks (producing the identical
// monolithic error, tagged with the original index), trivial pairs take
// the cross-component answer, and in-shard pairs evaluate on their
// shard's context. A missing shard context fails before any pair runs.
func execPlan[T any](p *BatchPlan, ctxs map[int]any, opts BatchOptions,
	trivial func(Pair) T, eval func(ctx any, pr Pair) (T, error)) ([]T, error) {
	if len(p.pairs) == 0 {
		return nil, nil
	}
	for _, id := range p.shardIDs {
		if _, ok := ctxs[id]; !ok {
			return nil, fmt.Errorf("ftrouting: plan needs a prepared context for shard %d", id)
		}
	}
	n := p.m.g.N()
	return forEachPairIndexed(p.pairs, opts.Parallelism, func(i int, pr Pair) (T, error) {
		var zero T
		switch p.pairShard[i] {
		case pairInvalid:
			if err := checkVertex("s", pr.S, n); err != nil {
				return zero, err
			}
			if err := checkVertex("t", pr.T, n); err != nil {
				return zero, err
			}
			return zero, fmt.Errorf("ftrouting: pair (%d,%d) misclassified invalid", pr.S, pr.T)
		case pairTrivial:
			return trivial(pr), nil
		default:
			return eval(ctxs[int(p.pairShard[i])], pr)
		}
	})
}

// ConnectedBatch evaluates the planned batch on prepared per-shard
// connectivity contexts (PrepareShard for every id in ShardIDs()).
// Results are in pair order, bit-identical to the monolithic
// ConnLabels.ConnectedBatch with the same batch.
func (p *BatchPlan) ConnectedBatch(ctxs map[int]any, opts BatchOptions) ([]bool, error) {
	return execPlan(p, ctxs, opts,
		func(Pair) bool { return false }, // different components: never connected
		func(ctx any, pr Pair) (bool, error) {
			c, ok := ctx.(*ConnFaultContext)
			if !ok {
				return false, fmt.Errorf("ftrouting: connectivity plan got %T context", ctx)
			}
			return c.Connected(pr.S, pr.T)
		})
}

// EstimateBatch evaluates the planned batch on prepared per-shard
// distance contexts, bit-identically to DistLabels.EstimateBatch.
func (p *BatchPlan) EstimateBatch(ctxs map[int]any, opts BatchOptions) ([]int64, error) {
	return execPlan(p, ctxs, opts,
		func(Pair) int64 { return Unreachable }, // different components: no scale connects
		func(ctx any, pr Pair) (int64, error) {
			d, ok := ctx.(*DistFaultContext)
			if !ok {
				return 0, fmt.Errorf("ftrouting: distance plan got %T context", ctx)
			}
			return d.Estimate(pr.S, pr.T)
		})
}

// TrivialRouteResult returns the routing answer of a cross-component
// pair: both walks visit only the source (no phase ever finds the
// target's cluster), the offline optimum is Inf, and nothing is charged —
// exactly what the monolithic simulator computes, without touching a
// shard. The plan executors answer trivial pairs with it, and a fan-out
// tier answers its plans' TrivialPairs with the same value so merged
// responses stay bit-identical to a single daemon's.
func TrivialRouteResult(pr Pair) RouteResult {
	return RouteResult{Opt: Inf, Trace: []int32{pr.S}}
}

// RouteBatch routes the planned batch under the unknown-fault model on
// prepared per-shard contexts, bit-identically to Router.RouteBatch.
func (p *BatchPlan) RouteBatch(ctxs map[int]any, opts BatchOptions) ([]RouteResult, error) {
	return execPlan(p, ctxs, opts, TrivialRouteResult,
		func(ctx any, pr Pair) (RouteResult, error) {
			r, ok := ctx.(*RouteFaultContext)
			if !ok {
				return RouteResult{}, fmt.Errorf("ftrouting: route plan got %T context", ctx)
			}
			return r.Route(pr.S, pr.T)
		})
}

// RouteForbiddenBatch routes the planned batch under the known-fault
// model on prepared per-shard contexts, bit-identically to
// Router.RouteForbiddenBatch.
func (p *BatchPlan) RouteForbiddenBatch(ctxs map[int]any, opts BatchOptions) ([]RouteResult, error) {
	return execPlan(p, ctxs, opts, TrivialRouteResult,
		func(ctx any, pr Pair) (RouteResult, error) {
			r, ok := ctx.(*RouteFaultContext)
			if !ok {
				return RouteResult{}, fmt.Errorf("ftrouting: route plan got %T context", ctx)
			}
			return r.RouteForbidden(pr.S, pr.T)
		})
}
