package core

import (
	"sync"
	"sync/atomic"
)

// InstanceKey addresses one (scale, cluster) connectivity instance of a
// labeling built from a tree-cover hierarchy: the distance labels of
// Section 4 and the routers of Section 5 run one sketch scheme per
// cluster of every scale.
type InstanceKey struct {
	Scale   int
	Cluster int32
}

// InstanceFaults is a fault set restricted to the instances it touches,
// with each instance's Steps 1-3 (PrepareFaults) deferred to the first
// decode that reaches it. The scale walks of Sections 4 and 5.1 read one
// home instance per scale and stop at the first connected scale, so a
// batch of pairs typically reaches a few of the instances F touches; only
// those are prepared.
//
// Add builds the restriction and must not run concurrently with Context;
// once the restriction is built, Context is safe for concurrent use.
type InstanceFaults struct {
	m map[InstanceKey]*instanceFaults
}

// instanceFaults is one instance's restriction of F and its context,
// prepared at most once.
type instanceFaults struct {
	scheme   *SketchScheme
	faults   []SketchEdgeLabel
	once     sync.Once
	prepared atomic.Bool
	ctx      *SketchFaultContext
	err      error
}

// NewInstanceFaults returns an empty restriction.
func NewInstanceFaults() *InstanceFaults {
	return &InstanceFaults{m: make(map[InstanceKey]*instanceFaults)}
}

// Add appends fault label l to the restriction of instance k, whose
// connectivity scheme is s. An instance's labels reach PrepareFaults in
// Add order.
func (x *InstanceFaults) Add(k InstanceKey, s *SketchScheme, l SketchEdgeLabel) {
	e := x.m[k]
	if e == nil {
		e = &instanceFaults{scheme: s}
		x.m[k] = e
	}
	e.faults = append(e.faults, l)
}

// Context returns the fault context of instance k (sketch copy 0),
// preparing it on the first call. ok is false when no fault lies in k:
// the instance tree is intact and every pair in it is connected. A
// preparation error is returned by every call that reaches k.
func (x *InstanceFaults) Context(k InstanceKey) (ctx *SketchFaultContext, ok bool, err error) {
	e := x.m[k]
	if e == nil {
		return nil, false, nil
	}
	e.once.Do(e.prepare)
	return e.ctx, true, e.err
}

func (e *instanceFaults) prepare() {
	e.ctx, e.err = e.scheme.PrepareFaults(e.faults, 0)
	e.prepared.Store(true)
}

// IsPrepared reports whether instance k holds a fault and its context has
// been prepared.
func (x *InstanceFaults) IsPrepared(k InstanceKey) bool {
	e := x.m[k]
	return e != nil && e.prepared.Load()
}
