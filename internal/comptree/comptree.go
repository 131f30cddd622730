// Package comptree reconstructs the component tree of T \ F_T from ancestry
// labels alone (Claim 3.14 and Figure 2 of the paper).
//
// Removing the faulty tree edges F_T splits the spanning tree T into
// |F_T| + 1 components. Each non-root component is identified by the child
// endpoint of the faulty edge connecting it to its parent component (its
// highest vertex); the root's component is a synthetic representative that
// covers the whole DFS range. Build runs in O(f log f) by sorting the
// 2(|F_T|+1) DFS tuples, and Locate answers "which component contains this
// vertex" in O(log f) by binary search — both exactly as in the paper's
// proof. A quadratic reference implementation is kept for differential
// tests.
package comptree

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"ftrouting/internal/ancestry"
)

// RootComp is the index of the root component.
const RootComp int32 = 0

// Tree is the component tree. Component 0 is the root component; component
// i >= 1 corresponds to faults[i-1] in the Build input (its child side).
type Tree struct {
	reps   []ancestry.Label // reps[0] is the synthetic whole-range root
	parent []int32          // parent component, -1 for root
	tuples []tuple          // sorted by time
}

type tuple struct {
	time uint32
	comp int32
	exit bool // false = DFS entry (kind 1), true = DFS exit (kind 2)
}

// Build constructs the component tree from the ancestry labels of the
// child endpoints of the faulty tree edges. Component i+1 corresponds to
// childLabels[i]. It returns an error on invalid or duplicate labels
// (duplicates would mean the same faulty edge was passed twice).
func Build(childLabels []ancestry.Label) (*Tree, error) {
	nc := len(childLabels) + 1
	t := &Tree{
		reps:   make([]ancestry.Label, nc),
		parent: make([]int32, nc),
		tuples: make([]tuple, 0, 2*nc),
	}
	t.reps[RootComp] = ancestry.Label{In: 0, Out: math.MaxUint32}
	t.parent[RootComp] = -1
	for i, l := range childLabels {
		if !l.Valid() {
			return nil, fmt.Errorf("comptree: invalid child label at index %d", i)
		}
		t.reps[i+1] = l
	}
	for i := int32(0); i < int32(nc); i++ {
		l := t.reps[i]
		t.tuples = append(t.tuples,
			tuple{time: l.In, comp: i, exit: false},
			tuple{time: l.Out, comp: i, exit: true},
		)
	}
	slices.SortFunc(t.tuples, func(a, b tuple) int { return cmp.Compare(a.time, b.time) })
	for i := 1; i < len(t.tuples); i++ {
		if t.tuples[i].time == t.tuples[i-1].time {
			return nil, fmt.Errorf("comptree: duplicate DFS timestamp %d", t.tuples[i].time)
		}
	}
	// One pass: on each entry tuple, derive the parent from the previous
	// tuple (Claim 3.14: previous entry => that component; previous exit =>
	// that component's parent, already known because its entry came first).
	for i, tu := range t.tuples {
		if tu.exit || tu.comp == RootComp {
			continue
		}
		prev := t.tuples[i-1]
		if prev.exit {
			t.parent[tu.comp] = t.parent[prev.comp]
		} else {
			t.parent[tu.comp] = prev.comp
		}
	}
	return t, nil
}

// NumComps returns the number of components (|F_T| + 1).
func (t *Tree) NumComps() int { return len(t.reps) }

// Parent returns the parent component of c (-1 for the root component).
func (t *Tree) Parent(c int32) int32 { return t.parent[c] }

// Locate returns the component containing the vertex with ancestry label l,
// in O(log f) time (binary search over the sorted tuples).
func (t *Tree) Locate(l ancestry.Label) int32 {
	// Find the last tuple with time <= l.In.
	idx := sort.Search(len(t.tuples), func(i int) bool { return t.tuples[i].time > l.In }) - 1
	if idx < 0 {
		return RootComp // cannot happen with the synthetic root at time 0
	}
	tu := t.tuples[idx]
	if tu.exit {
		return t.parent[tu.comp]
	}
	return tu.comp
}

// BuildNaive is the O(f^2) reference construction used in differential
// tests: each component's parent is the rep with the smallest interval
// properly containing its own.
func BuildNaive(childLabels []ancestry.Label) (*Tree, error) {
	t, err := Build(childLabels) // reuse validation and rep layout
	if err != nil {
		return nil, err
	}
	for i := int32(1); i < int32(t.NumComps()); i++ {
		best := RootComp
		for j := int32(0); j < int32(t.NumComps()); j++ {
			if i == j {
				continue
			}
			if t.reps[j].IsProperAncestorOf(t.reps[i]) {
				if best == RootComp || t.reps[best].IsProperAncestorOf(t.reps[j]) {
					best = j
				}
			}
		}
		t.parent[i] = best
	}
	t.parent[RootComp] = -1
	return t, nil
}

// LocateNaive scans all reps for the deepest ancestor-or-self of l.
func (t *Tree) LocateNaive(l ancestry.Label) int32 {
	best := RootComp
	for i := int32(1); i < int32(t.NumComps()); i++ {
		if t.reps[i].IsAncestorOf(l) {
			if best == RootComp || t.reps[best].IsAncestorOf(t.reps[i]) {
				best = i
			}
		}
	}
	return best
}

// Children returns for each component the list of its child components.
func (t *Tree) Children() [][]int32 {
	out := make([][]int32, t.NumComps())
	for c := int32(1); c < int32(t.NumComps()); c++ {
		p := t.parent[c]
		out[p] = append(out[p], c)
	}
	return out
}
