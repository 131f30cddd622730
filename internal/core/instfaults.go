package core

import (
	"sync"

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
// the instances F touches; only those restrict F, build the fault edge
// labels and run Steps 1-3 (PrepareFaults). Safe for concurrent use.
type InstanceFaults struct {
	ids []graph.EdgeID
	m   sync.Map // InstanceKey -> *instanceFaults
}

// instanceFaults is one reached instance's context, prepared at most once.
type instanceFaults struct {
	once   sync.Once
	faulty bool
	ctx    *SketchFaultContext
	err    error
}

// NewInstanceFaults returns the fault set ids, restricted to no instance
// yet. The set keeps ids; the caller must not modify them afterwards.
func NewInstanceFaults(ids []graph.EdgeID) *InstanceFaults {
	return &InstanceFaults{ids: ids}
}

// Context returns the fault context (sketch copy 0) of instance k, whose
// local graph is sub and connectivity scheme s. The first call for k
// restricts F to sub (RestrictFaults) and prepares the context; every
// later call shares it. ok is false when no fault lies in k: the instance
// tree is intact and every pair in it is connected. A preparation error
// is returned by every call that reaches k.
func (x *InstanceFaults) Context(k InstanceKey, sub *graph.Subgraph, s *SketchScheme) (ctx *SketchFaultContext, ok bool, err error) {
	v, found := x.m.Load(k)
	if !found {
		v, _ = x.m.LoadOrStore(k, new(instanceFaults))
	}
	e := v.(*instanceFaults)
	e.once.Do(func() {
		if fl := RestrictFaults(sub, s, x.ids); len(fl) > 0 {
			e.faulty = true
			e.ctx, e.err = s.PrepareFaults(fl, 0)
		}
	})
	return e.ctx, e.faulty, e.err
}

// Reached reports whether a Context call has reached instance k.
func (x *InstanceFaults) Reached(k InstanceKey) bool {
	_, ok := x.m.Load(k)
	return ok
}

// RestrictFaults returns the labels, under scheme s, of the fault edges
// ids that lie in the instance whose local graph is sub: in ids order,
// duplicates kept, the order Decode and PrepareFaults consume them in.
func RestrictFaults(sub *graph.Subgraph, s *SketchScheme, ids []graph.EdgeID) []SketchEdgeLabel {
	var fl []SketchEdgeLabel
	for _, id := range ids {
		if le, ok := sub.LocalEdge(id); ok {
			fl = append(fl, s.EdgeLabel(le))
		}
	}
	return fl
}
