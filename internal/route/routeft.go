package route

import (
	"fmt"
	"sort"

	"ftrouting/internal/core"
	"ftrouting/internal/graph"
	"ftrouting/internal/treeroute"
)

// Result reports a routing simulation. Its JSON tags are the wire form
// of a route answer in the serving API (serve/api.RouteResult is this
// type), in key order.
type Result struct {
	Reached bool `json:"reached"`
	// Cost is the total traversed weight: forward walks, reverse walks
	// after detections, and Γ probe round trips.
	Cost int64 `json:"cost"`
	// Opt is dist_{G\F}(s,t) (offline optimum; Inf if disconnected).
	Opt int64 `json:"opt"`
	// Stretch = Cost/Opt (0 when Opt is 0 or unreachable).
	Stretch float64 `json:"stretch"`
	// Hops counts traversed edges (including reversals).
	Hops int `json:"hops"`
	// Probes counts Γ label-fetch round trips (balanced tables only).
	Probes int `json:"probes"`
	// Detections counts faulty-edge discoveries.
	Detections int `json:"detections"`
	// Phases and Iterations count distance scales tried and per-phase
	// trial-and-error rounds (Section 5.2).
	Phases     int `json:"phases"`
	Iterations int `json:"iterations"`
	// MaxHeaderBits is the largest message header observed (Theorem 5.8's
	// Õ(f^3)).
	MaxHeaderBits int `json:"max_header_bits"`
	// ProbeCost is the weight charged for Γ label fetches (included in
	// Cost; the probe round trips are side messages, not part of Trace).
	ProbeCost int64 `json:"probe_cost"`
	// Trace is the sequence of vertices the message visits, including
	// reversals. Its walk weight equals Cost - ProbeCost.
	Trace []int32 `json:"trace,omitempty"`
}

// finish computes the stretch field.
func (res *Result) finish() {
	if res.Reached && res.Opt > 0 && res.Opt < graph.Inf {
		res.Stretch = float64(res.Cost) / float64(res.Opt)
	}
}

// walkOutcome describes how far a single path walk got.
type walkOutcome struct {
	reached    bool
	detected   bool
	faultLocal graph.EdgeID // local edge id of the detected fault
	atLocal    int32        // local vertex where the fault was detected
	gamma      []int32      // Γ ports exposed by the failing hop, if any
	cost       int64
	hops       int
	visited    []int32 // global vertices visited after the start, in order
}

// walkPath executes a succinct path on the real network, one port at a
// time, stopping at the first faulty edge. Routing decisions use only
// header-carried information (the step endpoints' tree-routing payloads)
// plus the current vertex's table; isFault reports whether an edge is in F.
// The outcome's visited buffer and gamma ports alias sc; callers consume
// them before the next walk on the same scratch.
func (r *Router) walkPath(inst *Instance, p *core.SuccinctPath, isFault graph.SkipFunc, sc *routeScratch) (walkOutcome, error) {
	var out walkOutcome
	out.visited = sc.visited[:0]
	defer func() { sc.visited = out.visited }()
	if len(p.Steps) == 0 {
		out.reached = true
		return out, nil
	}
	sub := inst.Cluster.Sub
	cur := p.Steps[0].From
	for si, st := range p.Steps {
		if st.From != cur {
			return out, fmt.Errorf("route: step %d starts at %d but walker is at %d", si, st.From, cur)
		}
		if st.IsTreeHop {
			if err := inst.Codec.DecodeInto(st.ToExtra, &sc.target); err != nil {
				return out, fmt.Errorf("route: step %d target label: %w", si, err)
			}
			target := sc.target
			for guard := 0; cur != st.To; guard++ {
				if guard > sub.Local.N()+1 {
					return out, fmt.Errorf("route: tree hop did not terminate (step %d)", si)
				}
				hop, err := treeroute.NextHop(inst.TR.Table(cur), target)
				if err != nil {
					return out, err
				}
				if hop.Arrived {
					return out, fmt.Errorf("route: arrived at label before reaching %d (step %d)", st.To, si)
				}
				gu := sub.ToGlobal[cur]
				arc := r.g.ArcAt(gu, hop.Port)
				le, ok := sub.LocalEdge(arc.E)
				if !ok {
					return out, fmt.Errorf("route: tree hop left the instance via edge %d", arc.E)
				}
				if isFault(arc.E) {
					out.detected = true
					out.faultLocal = le
					out.atLocal = cur
					out.gamma = hop.Gamma
					return out, nil
				}
				out.cost += arc.W
				out.hops++
				out.visited = append(out.visited, arc.To)
				cur = sub.Local.Edge(le).Other(cur)
			}
			continue
		}
		// Edge step: cross the recovery edge using the port carried in its
		// extended identifier.
		_, port, _ := st.Edge.EndpointInfo(cur)
		gu := sub.ToGlobal[cur]
		arc := r.g.ArcAt(gu, port)
		le, ok := sub.LocalEdge(arc.E)
		if !ok {
			return out, fmt.Errorf("route: recovery edge %d not in instance", arc.E)
		}
		if isFault(arc.E) {
			out.detected = true
			out.faultLocal = le
			out.atLocal = cur
			return out, nil
		}
		out.cost += arc.W
		out.hops++
		out.visited = append(out.visited, arc.To)
		cur = sub.Local.Edge(le).Other(cur)
		if cur != st.To {
			return out, fmt.Errorf("route: edge step landed at %d, want %d", cur, st.To)
		}
	}
	out.reached = true
	return out, nil
}

// fetchFaultLabel charges the cost of obtaining the routing label of the
// detected faulty edge (Section 5.2): free if the detecting vertex stores
// it; otherwise 2·w(u,w) round trips to Γ block members until a live one is
// found (Claim 5.6 guarantees at least one among f+1 members under at most
// f faults).
func (r *Router) fetchFaultLabel(inst *Instance, out walkOutcome, isFault graph.SkipFunc) (cost int64, probes int, err error) {
	le := out.faultLocal
	if !inst.Cluster.Tree.InTree[le] {
		return 0, 0, nil // non-tree edge: its label is its EID, already in the header's path
	}
	if r.storesEdgeLabel(inst, out.atLocal, le) {
		return 0, 0, nil
	}
	sub := inst.Cluster.Sub
	gu := sub.ToGlobal[out.atLocal]
	for _, p := range out.gamma {
		arc := r.g.ArcAt(gu, p)
		if isFault(arc.E) {
			continue // detected for free at gu
		}
		cost += 2 * arc.W
		probes++
		lw, ok := sub.LocalVertex(arc.To)
		if !ok {
			continue
		}
		if r.storesEdgeLabel(inst, lw, le) {
			return cost, probes, nil
		}
	}
	return cost, probes, fmt.Errorf("route: no reachable Γ member stores the label of local edge %d", le)
}

// headerBits accounts the message header of one iteration (Section 5.2):
// the succinct path, the scale/cluster/segment indexes, and the f' copies
// of the known faulty edges' labels.
func (r *Router) headerBits(inst *Instance, p *core.SuccinctPath, known []core.SketchEdgeLabel) int {
	bits := p.BitLen(inst.Cluster.Sub.Local.N(), inst.Conn.Layout().Bits())
	bits += 3 * 32 // i, i*(t), q
	for _, l := range known {
		bits += routingEdgeLabelBits(inst, l.IsTree, r.f+1)
	}
	return bits
}

// RouteFT routes a message from s to t under an unknown fault set
// (Theorem 5.5/5.8): phases over distance scales; within a phase, up to
// f+1 trial-and-error iterations, each decoding with a fresh connectivity
// copy, walking the resulting path, and on detection fetching the fault's
// label and reversing to s.
//
// The behaviour is specified for |faults| <= f; with more faults the
// router may fail to reach a connected target (it never violates safety).
func (r *Router) RouteFT(s, t int32, faults graph.EdgeSet) (Result, error) {
	if err := r.hier.CheckHeld(s, t); err != nil {
		return Result{}, err
	}
	sc := r.getScratch()
	defer r.scratch.Put(sc)
	res := Result{Opt: sc.sp.Distance(r.g, s, t, graph.SkipSet(faults))}
	isFault := func(e graph.EdgeID) bool { return faults[e] }
	res.Trace = append(res.Trace, s)
	if s == t {
		res.Reached = true
		res.Stretch = 1
		return res, nil
	}
	tLabel := r.Label(t) // the only destination information given to s
	for i := range r.inst {
		inst := r.inst[i][tLabel.Home[i]]
		ls, ok := inst.Cluster.Sub.LocalVertex(s)
		if !ok {
			continue // s not in T_{i,i*(t)}; next phase
		}
		tConn := tLabel.Entries[i]
		sConn := inst.Conn.VertexLabel(ls)
		known := make(map[graph.EdgeID]core.SketchEdgeLabel)
		res.Phases++
		for iter := 0; iter <= r.f; iter++ {
			res.Iterations++
			copyIdx := iter
			if copyIdx >= inst.Conn.Copies() {
				copyIdx = inst.Conn.Copies() - 1
			}
			fl := sortedLabels(known)
			verdict, err := inst.Conn.Decode(sConn, tConn, fl, copyIdx, true)
			if err != nil {
				return res, err
			}
			if !verdict.Connected {
				break // next phase
			}
			if hb := r.headerBits(inst, verdict.Path, fl); hb > res.MaxHeaderBits {
				res.MaxHeaderBits = hb
			}
			out, err := r.walkPath(inst, verdict.Path, isFault, sc)
			res.Cost += out.cost
			res.Hops += out.hops
			res.Trace = append(res.Trace, out.visited...)
			if err != nil {
				return res, err
			}
			if out.reached {
				res.Reached = true
				res.finish()
				return res, nil
			}
			res.Detections++
			probeCost, probes, err := r.fetchFaultLabel(inst, out, isFault)
			res.Cost += probeCost
			res.ProbeCost += probeCost
			res.Probes += probes
			if err != nil {
				return res, err
			}
			// Reverse to s along the walked prefix.
			res.Cost += out.cost
			res.Hops += out.hops
			for i := len(out.visited) - 2; i >= 0; i-- {
				res.Trace = append(res.Trace, out.visited[i])
			}
			if len(out.visited) > 0 {
				res.Trace = append(res.Trace, s)
			}
			if _, dup := known[out.faultLocal]; dup {
				return res, fmt.Errorf("route: re-detected known fault %d (no progress)", out.faultLocal)
			}
			known[out.faultLocal] = inst.Conn.EdgeLabel(out.faultLocal)
		}
	}
	res.finish()
	return res, nil
}

// sortedLabels returns the known fault labels in deterministic (UID) order.
func sortedLabels(known map[graph.EdgeID]core.SketchEdgeLabel) []core.SketchEdgeLabel {
	out := make([]core.SketchEdgeLabel, 0, len(known))
	for _, l := range known {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].EID[0] < out[j].EID[0] })
	return out
}

// StretchBoundFT returns the Theorem 5.8 guarantee 32k(|F|+1)^2.
func (r *Router) StretchBoundFT(numFaults int) int64 {
	return int64(32*r.k) * int64(numFaults+1) * int64(numFaults+1)
}
