package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"ftrouting/internal/ancestry"
	"ftrouting/internal/comptree"
	"ftrouting/internal/graph"
)

// InstanceKey addresses one (scale, cluster) connectivity instance of a
// labeling built from a tree-cover hierarchy: the distance labels of
// Section 4 and the routers of Section 5 run one sketch scheme per
// cluster of every scale.
type InstanceKey struct {
	Scale   int
	Cluster int32
}

// InstanceFaults is a fault set, given by global edge ids, restricted to
// an instance only when a decode first reaches it. The scale walks of
// Sections 4 and 5.1 read one home instance per scale and stop at the
// first connected scale, so a batch of pairs typically reaches a few of
// the instances F touches. A reached instance keeps only the child-side
// ancestry labels of its tree faults, which decide every pair the faults
// do not separate; the fault edge labels are never built, and the rest of
// the decoder runs on the first pair the faults separate there (DESIGN.md
// §12). Safe for concurrent use.
type InstanceFaults struct {
	ids []graph.EdgeID
	m   sync.Map // InstanceKey -> *SketchFaultContext, or the error of its first reach
}

// NewInstanceFaults returns the fault set ids, restricted to no instance
// yet. The set keeps ids; the caller must not modify them afterwards.
func NewInstanceFaults(ids []graph.EdgeID) *InstanceFaults {
	return &InstanceFaults{ids: ids}
}

// Context returns the fault context (sketch copy 0) of instance k, whose
// local graph is sub and connectivity scheme s. The first call for k
// restricts F to sub by edge id and keeps the child-side ancestry label
// of each distinct tree fault, in first-occurrence order; every later call
// shares the context. When no tree fault lies in k it is the scheme's
// shared empty-fault context: the instance tree is intact and every pair
// in it is connected. An error of that first call (a tree fault whose
// endpoint intervals do not nest, or labels the component tree rejects)
// is returned by every call that reaches k. The first reach is a pure
// function of (ids, sub, s), so concurrent first calls may each compute
// it; all of them return the one value the map keeps.
func (x *InstanceFaults) Context(k InstanceKey, sub *graph.Subgraph, s *SketchScheme) (*SketchFaultContext, error) {
	v, found := x.m.Load(k)
	if !found {
		ctx, err := s.reach(sub, x.ids)
		if v = ctx; err != nil {
			v = err
		}
		v, _ = x.m.LoadOrStore(k, v)
	}
	if err, ok := v.(error); ok {
		return nil, err
	}
	return v.(*SketchFaultContext), nil
}

// Reached reports whether a Context call has reached instance k.
func (x *InstanceFaults) Reached(k InstanceKey) bool {
	_, ok := x.m.Load(k)
	return ok
}

// reach prepares the global fault ids for the instance whose local graph
// is sub: the distinct tree faults among them, with the ancestry labels
// of their child sides from the scheme's own tree. It builds no edge
// label and no component tree, and copies nothing of ids, which the
// context keeps for the first separated decode.
func (s *SketchScheme) reach(sub *graph.Subgraph, ids []graph.EdgeID) (*SketchFaultContext, error) {
	var ctx *SketchFaultContext
	for _, id := range ids {
		le, ok := sub.LocalEdge(id)
		if !ok || !s.tree.InTree[le] {
			continue
		}
		if ctx == nil {
			ctx = s.newFaultContext(0, 0)
			ctx.sub, ctx.ids = sub, ids
		}
		if slices.ContainsFunc(ctx.tree, func(f ctxFault) bool { return f.e == le }) {
			continue
		}
		e := s.g.Edge(le)
		child, _, ok := ancestry.ChildOf(s.anc[e.U], s.anc[e.V])
		if !ok {
			return nil, fmt.Errorf("core: tree-fault label %d has non-nested endpoint intervals", len(ctx.tree))
		}
		ctx.tree = append(ctx.tree, ctxFault{e: le, child: child})
	}
	if ctx == nil {
		return &s.empty, nil
	}
	if err := step1Err(ctx.tree); err != nil {
		return nil, err
	}
	return ctx, nil
}

// step1Err returns the error comptree.Build reports on the child labels
// of tree, or nil, without building the tree: Build rejects only an
// invalid label and a DFS timestamp that two labels (or a label and the
// synthetic root's 0 and MaxUint32) share, which labels of one intact
// ancestry labeling never have.
func step1Err(tree []ctxFault) error {
	for i, f := range tree {
		a := f.child
		bad := !a.Valid() || a.Out == math.MaxUint32
		for _, g := range tree[:i] {
			b := g.child
			bad = bad || a.In == b.In || a.In == b.Out || a.Out == b.In || a.Out == b.Out
		}
		if bad {
			labels := make([]ancestry.Label, len(tree))
			for j, f := range tree {
				labels[j] = f.child
			}
			_, err := comptree.Build(labels)
			return err
		}
	}
	return nil
}

// RestrictFaults returns the labels, under scheme s, of the fault edges
// ids that lie in the instance whose local graph is sub: in ids order,
// duplicates kept, the order Decode and PrepareFaults consume them in.
func RestrictFaults(sub *graph.Subgraph, s *SketchScheme, ids []graph.EdgeID) []SketchEdgeLabel {
	var fl []SketchEdgeLabel
	for i, id := range ids {
		if le, ok := sub.LocalEdge(id); ok {
			if fl == nil {
				fl = make([]SketchEdgeLabel, 0, len(ids)-i)
			}
			fl = append(fl, s.EdgeLabel(le))
		}
	}
	return fl
}
