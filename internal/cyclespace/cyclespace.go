// Package cyclespace implements the cycle-space sampling of Pritchard and
// Thurimella (Lemma 1.7, Appendix B): every edge receives a b-bit label
// phi(e) such that for any edge subset F,
//
//	XOR_{e in F} phi(e) == 0   with probability 1   if F is an induced edge cut,
//	                           with probability 2^-b otherwise.
//
// Construction: pick a spanning tree T. Each of the b bits corresponds to a
// uniformly random binary circulation, sampled by including each non-tree
// edge's fundamental cycle independently with probability 1/2. Concretely,
// every non-tree edge gets an independent uniform b-bit string, and a tree
// edge t gets the XOR of the strings of all non-tree edges whose fundamental
// cycle contains t — equivalently, of all non-tree edges with exactly one
// endpoint in the subtree below t, which a single post-order pass computes
// in O((m+n) * b/64) word operations.
package cyclespace

import (
	"fmt"

	"ftrouting/internal/bitvec"
	"ftrouting/internal/graph"
	"ftrouting/internal/xrand"
)

// Labels holds the per-edge cycle-space labels of one graph, packed in
// one word slab of b-bit vectors: slots 0..n-1 are per-vertex
// accumulators, and the rest hold one label per non-tree edge. When
// Assign is done, the accumulator of a tree vertex is the label of the
// tree edge above it.
type Labels struct {
	B     int
	k     int // words per label
	words []uint64
	slot  []int32 // by EdgeID: the slab slot holding the edge's label
}

// vec returns slab slot i as a vector sharing the slab's words.
func (l *Labels) vec(i int32) bitvec.Vec {
	o := int(i) * l.k
	return bitvec.View(l.B, l.words[o:o+l.k:o+l.k])
}

// Assign computes b-bit labels for every edge of the tree's graph. Edges
// outside the tree's component get zero labels (the FT scheme is applied
// per component; see Section 3 intro). Time O((m+n)b/64), in three
// allocations; both passes XOR the slab's words in place.
func Assign(t *graph.Tree, b int, seed uint64) (*Labels, error) {
	if b < 1 {
		return nil, fmt.Errorf("cyclespace: b must be >= 1, got %d", b)
	}
	g := t.G
	n, m := g.N(), g.M()
	rng := xrand.NewSplitMix64(seed)
	treeEdges := max(t.Size()-1, 0)
	k := bitvec.Words(b)
	l := &Labels{B: b, k: k, words: make([]uint64, (n+m-treeEdges)*k), slot: make([]int32, m)}
	w := l.words
	// Accumulator slot v collects the XOR of the labels of the non-tree
	// edges incident to v.
	next := int32(n)
	edges := g.Edges()
	for id := range edges {
		if t.InTree[id] {
			continue // filled below
		}
		e := &edges[id]
		l.slot[id] = next
		o := int(next) * k
		next++
		if !t.Contains(e.U) || !t.Contains(e.V) {
			continue
		}
		phi := w[o : o+k : o+k]
		bitvec.View(b, phi).Randomize(rng)
		u, v := w[int(e.U)*k:][:k], w[int(e.V)*k:][:k]
		for i, x := range phi {
			u[i] ^= x
			v[i] ^= x
		}
	}
	// Post-order aggregation: the subtree XOR of the accumulators gives,
	// for the tree edge above each vertex, the XOR over non-tree edges
	// with exactly one endpoint below (edges with both endpoints below
	// cancel). A vertex's accumulator is final once the pass reaches it,
	// so it becomes that label as is.
	order := t.Order
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if v == t.Root {
			continue
		}
		l.slot[t.ParentEdge[v]] = v
		acc, p := w[int(v)*k:][:k], w[int(t.Parent[v])*k:][:k]
		for j, x := range acc {
			p[j] ^= x
		}
	}
	return l, nil
}

// Phi returns the label of edge id. It shares the labels' storage:
// callers must not mutate it.
func (l *Labels) Phi(id graph.EdgeID) bitvec.Vec { return l.vec(l.slot[id]) }

// XorOf returns the XOR of the labels of the given edges.
func (l *Labels) XorOf(ids []graph.EdgeID) bitvec.Vec {
	out := bitvec.New(l.B)
	for _, id := range ids {
		out.XorInPlace(l.Phi(id))
	}
	return out
}

// LooksLikeInducedCut applies the Lemma 1.7 test: true if the XOR of the
// labels is zero. One-sided error: induced cuts always pass; non-cuts pass
// with probability 2^-b.
func (l *Labels) LooksLikeInducedCut(ids []graph.EdgeID) bool {
	return l.XorOf(ids).IsZero()
}

// IsInducedCut is the exact (label-free) predicate used as ground truth in
// tests: F is an induced edge cut iff F = delta(S) for some vertex set S,
// iff no component of G\F contains both endpoints of an edge of F and
// the components of G\F can be 2-colored so that every F edge crosses...
// Equivalently (and how we test it): F is an induced cut iff there is an
// assignment side: V -> {0,1} such that an edge crosses sides exactly when
// it is in F. We decide this with a BFS 2-coloring where F edges force a
// side flip and non-F edges force equal sides.
func IsInducedCut(g *graph.Graph, ids []graph.EdgeID) bool {
	inF := graph.NewEdgeSet(ids...)
	n := g.N()
	side := make([]int8, n)
	for i := range side {
		side[i] = -1
	}
	for s := int32(0); s < int32(n); s++ {
		if side[s] >= 0 {
			continue
		}
		side[s] = 0
		queue := []int32{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, a := range g.Adj(u) {
				want := side[u]
				if inF[a.E] {
					want = 1 - side[u]
				}
				if side[a.To] < 0 {
					side[a.To] = want
					queue = append(queue, a.To)
				} else if side[a.To] != want {
					return false
				}
			}
		}
	}
	return true
}
