package route

import (
	"fmt"
	"slices"

	"ftrouting/internal/core"
	"ftrouting/internal/graph"
)

// ForbiddenContext is a forbidden fault set preprocessed for repeated
// routes. The per-instance connectivity fault contexts (Steps 1-3 of the
// sketch decoder) depend only on F, but the Section 5.1 walk decodes one
// home instance per scale and stops at the first connected scale, so each
// instance restricts F and prepares its context on the first Route that
// reaches it, and every later Route shares it. The context is safe for
// concurrent Route calls.
type ForbiddenContext struct {
	r *Router
	// faults is F as its ids, and isFault its membership test, built once
	// so that warm routes allocate nothing.
	faults  []graph.EdgeID
	isFault graph.SkipFunc
	// conn restricts F to the instances the routes reach.
	conn *core.InstanceFaults
}

// PrepareForbidden returns a context for the forbidden fault set
// faultIDs, which it keeps (the caller must not modify them).
func (r *Router) PrepareForbidden(faultIDs []graph.EdgeID) *ForbiddenContext {
	return &ForbiddenContext{
		r:       r,
		faults:  faultIDs,
		isFault: faultTest(faultIDs),
		conn:    core.NewInstanceFaults(faultIDs),
	}
}

// faultTest returns the membership test of the fault set ids. With
// |F| ≤ f that is a scan of a few ids, which costs less than a map lookup
// on the hot paths that test every scanned or walked edge.
func faultTest(ids []graph.EdgeID) graph.SkipFunc {
	return func(e graph.EdgeID) bool { return slices.Contains(ids, e) }
}

// Route routes one pair under the prepared forbidden set; results are
// bit-identical to RouteForbidden with the same fault ids.
func (c *ForbiddenContext) Route(s, t int32) (Result, error) {
	return c.r.routeForbidden(s, t, nil, c)
}

// RouteInto is Route with the result written into res, reusing its Trace
// storage; every other working buffer of the walk comes from the router's
// scratch pool, so a warm serving loop that recycles one Result performs
// zero heap allocations per route. Results are bit-identical to Route's.
func (c *ForbiddenContext) RouteInto(s, t int32, res *Result) error {
	return c.r.routeForbiddenInto(s, t, nil, c, res)
}

// RouteForbidden routes under the forbidden-set model of Section 5.1
// (Theorem 5.3): the labels of the faulty edges are known to the source, so
// each distance scale needs a single decode, the chosen path avoids F by
// construction, and the walk is one-way. The stretch is bounded by
// (8k-2)(|F|+1).
func (r *Router) RouteForbidden(s, t int32, faultIDs []graph.EdgeID) (Result, error) {
	return r.routeForbidden(s, t, faultIDs, nil)
}

// routeForbidden is the shared walk of RouteForbidden and
// ForbiddenContext.Route; a non-nil ctx supplies the fault set and
// prepared per-instance connectivity decoders (faultIDs is then unused)
// instead of assembling fault labels per query.
func (r *Router) routeForbidden(s, t int32, faultIDs []graph.EdgeID, ctx *ForbiddenContext) (Result, error) {
	var res Result
	err := r.routeForbiddenInto(s, t, faultIDs, ctx, &res)
	return res, err
}

// routeForbiddenInto is routeForbidden writing into a caller-owned result
// (Trace storage reused) with all walk state on pooled scratch.
func (r *Router) routeForbiddenInto(s, t int32, faultIDs []graph.EdgeID, ctx *ForbiddenContext, res *Result) error {
	if err := r.hier.CheckHeld(s, t); err != nil {
		return err
	}
	var isFault graph.SkipFunc
	if ctx != nil {
		faultIDs, isFault = ctx.faults, ctx.isFault
	} else {
		isFault = faultTest(faultIDs)
	}
	skip := isFault
	if len(faultIDs) == 0 {
		skip = nil
	}
	sc := r.getScratch()
	defer r.scratch.Put(sc)
	trace := res.Trace[:0]
	*res = Result{Opt: sc.sp.Distance(r.g, s, t, skip), Trace: append(trace, s)}
	if s == t {
		res.Reached = true
		res.Stretch = 1
		return nil
	}
	for i := range r.inst {
		// Section 5.1 phases use the instance covering the 2^i-ball of s.
		j := r.hier.Home(i, s)
		inst := r.inst[i][j]
		lt, ok := inst.Cluster.Sub.LocalVertex(t)
		if !ok {
			continue
		}
		ls, ok := inst.Cluster.Sub.LocalVertex(s)
		if !ok {
			return fmt.Errorf("route: s=%d missing from its home instance (%d,%d)", s, i, j)
		}
		res.Phases++
		var verdict core.Verdict
		var err error
		if ctx != nil {
			// F restricted to this instance and prepared on first reach.
			prepared, perr := ctx.conn.Context(core.InstanceKey{Scale: i, Cluster: j}, inst.Cluster.Sub, inst.Conn)
			if perr != nil {
				return fmt.Errorf("route: instance (%d,%d): %w", i, j, perr)
			}
			verdict, err = prepared.DecodeInto(inst.Conn.VertexLabel(ls), inst.Conn.VertexLabel(lt), &sc.path)
		} else {
			// The forbidden-set labels of F restricted to this instance.
			fl := core.RestrictFaults(inst.Cluster.Sub, inst.Conn, faultIDs)
			verdict, err = inst.Conn.Decode(inst.Conn.VertexLabel(ls), inst.Conn.VertexLabel(lt), fl, 0, true)
		}
		if err != nil {
			return err
		}
		if !verdict.Connected {
			continue
		}
		if hb := r.headerBits(inst, verdict.Path, nil); hb > res.MaxHeaderBits {
			res.MaxHeaderBits = hb
		}
		out, err := r.walkPath(inst, verdict.Path, isFault, sc)
		res.Cost += out.cost
		res.Hops += out.hops
		res.Trace = append(res.Trace, out.visited...)
		if err != nil {
			return err
		}
		if !out.reached {
			// The decoded path avoids all of F; hitting a fault means the
			// decoder and the walker disagree — a bug, not a protocol event.
			return fmt.Errorf("route: forbidden-set walk hit fault (local edge %d)", out.faultLocal)
		}
		res.Reached = true
		res.finish()
		return nil
	}
	res.finish()
	return nil
}

// StretchBoundForbidden returns the Theorem 5.3 guarantee (8k-2)(|F|+1).
func (r *Router) StretchBoundForbidden(numFaults int) int64 {
	return int64(8*r.k-2) * int64(numFaults+1)
}
