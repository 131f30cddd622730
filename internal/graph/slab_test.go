package graph

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"ftrouting/internal/xrand"
)

// slabMatrix is the generator matrix the slab builders are checked on:
// sparse and dense, weighted and unit, connected and not, with isolated
// vertices.
func slabMatrix() map[string]*Graph {
	fat, _ := FatTree(4)
	return map[string]*Graph{
		"path":         Path(17),
		"cycle":        Cycle(12),
		"star":         Star(15),
		"wheel":        Wheel(11),
		"complete":     Complete(9),
		"grid":         Grid(5, 7),
		"torus":        Torus(4, 5),
		"hypercube":    Hypercube(5),
		"random-tree":  RandomTree(40, 3),
		"random":       RandomConnected(60, 90, 4),
		"gnm":          GNM(50, 40, 5),
		"pref-attach":  PreferentialAttachment(45, 2, 6),
		"ring-cliques": RingOfCliques(5, 4),
		"fattree":      fat,
		"islands":      Islands(4, 20, 25, 7),
		"weighted":     WithRandomWeights(RandomConnected(50, 80, 8), 9, 9),
		"empty":        New(6),
	}
}

// sameGraph fails unless a and b have identical edges (ports included)
// and adjacency lists (an empty list equals a nil one).
func sameGraph(t *testing.T, name string, a, b *Graph) {
	t.Helper()
	if a.N() != b.N() || !slices.Equal(a.Edges(), b.Edges()) {
		t.Fatalf("%s: edges differ", name)
	}
	for u := int32(0); int(u) < a.N(); u++ {
		if !slices.Equal(a.Adj(u), b.Adj(u)) {
			t.Fatalf("%s: adjacency of %d differs: %v vs %v", name, u, a.Adj(u), b.Adj(u))
		}
	}
}

// snapshotAdj copies every adjacency list of g.
func snapshotAdj(g *Graph) [][]Arc {
	out := make([][]Arc, g.N())
	for u := range out {
		out[u] = append([]Arc(nil), g.Adj(int32(u))...)
	}
	return out
}

func bareEdges(g *Graph) []Edge {
	out := make([]Edge, g.M())
	for i, e := range g.Edges() {
		out[i] = Edge{U: e.U, V: e.V, W: e.W}
	}
	return out
}

func TestFromEdgesMatchesAddEdge(t *testing.T) {
	for name, g := range slabMatrix() {
		back, err := FromEdges(g.N(), bareEdges(g))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameGraph(t, name, back, g)
		if err := back.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestFromEdgesRejectsBadEdges(t *testing.T) {
	for name, e := range map[string]Edge{
		"range":     {U: 0, V: 5, W: 1},
		"negative":  {U: -1, V: 1, W: 1},
		"self-loop": {U: 2, V: 2, W: 1},
		"weight":    {U: 0, V: 1, W: 0},
	} {
		edges := []Edge{{U: 0, V: 1, W: 1}, e}
		if _, err := FromEdges(3, edges); !errors.Is(err, ErrBadEdge) {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// sortedSubset returns an ascending random subset of g's vertices.
func sortedSubset(g *Graph, rng *xrand.SplitMix64) []int32 {
	var vs []int32
	for v := int32(0); int(v) < g.N(); v++ {
		if rng.Intn(3) != 0 {
			vs = append(vs, v)
		}
	}
	return vs
}

// inducedPerEdge is the reference induced subgraph: every edge of g, in
// id order, with both endpoints in the ascending vertex list and weight at
// most maxW, added to the local graph one AddEdge at a time.
func inducedPerEdge(g *Graph, verts []int32, maxW int64) (*Graph, []EdgeID) {
	local := New(len(verts))
	var ids []EdgeID
	for id, e := range g.Edges() {
		lu, okU := slices.BinarySearch(verts, e.U)
		lv, okV := slices.BinarySearch(verts, e.V)
		if okU && okV && e.W <= maxW {
			local.MustAddEdge(int32(lu), int32(lv), e.W)
			ids = append(ids, EdgeID(id))
		}
	}
	return local, ids
}

func TestSubgraphFromPartsMatchesInduced(t *testing.T) {
	rng := xrand.NewSplitMix64(11)
	for name, g := range slabMatrix() {
		all := make([]int32, g.N())
		for v := range all {
			all[v] = int32(v)
		}
		for _, c := range []struct {
			verts []int32
			maxW  int64
		}{
			{all, Inf},
			{sortedSubset(g, rng), Inf},
			{sortedSubset(g, rng), 4},
		} {
			want, err := Induced(g, c.verts, c.maxW)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			refLocal, refEdges := inducedPerEdge(g, c.verts, c.maxW)
			sameGraph(t, name+"/reference", want.Local, refLocal)
			if !slices.Equal(want.EdgeToGlobal, refEdges) {
				t.Fatalf("%s: Induced kept edges %v, reference %v", name, want.EdgeToGlobal, refEdges)
			}
			got, err := SubgraphFromParts(g, append([]int32(nil), want.ToGlobal...), append([]EdgeID(nil), want.EdgeToGlobal...))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sameGraph(t, name, got.Local, want.Local)
			if !slices.Equal(got.ToGlobal, want.ToGlobal) {
				t.Fatalf("%s: vertex columns differ", name)
			}
			if !slices.Equal(got.EdgeToGlobal, want.EdgeToGlobal) {
				t.Fatalf("%s: edge columns differ", name)
			}
			// Equal columns plus lookups that agree with a scan of the
			// columns on both sides: the lookups of the two agree too.
			checkLookups(t, name+"/induced", g, want)
			checkLookups(t, name+"/parts", g, got)
		}
	}
}

// checkLookups compares LocalVertex, Contains, LocalEdge and the
// reference constructor's search with a linear scan of the
// ToGlobal/EdgeToGlobal columns for every id from -2 to two past the
// parent's range: present ids, negatives, ids below the minimum, in a
// gap and above the maximum.
func checkLookups(t *testing.T, name string, g *Graph, s *Subgraph) {
	t.Helper()
	for v := int32(-2); v < int32(g.N())+2; v++ {
		want := slices.Index(s.ToGlobal, v)
		got, ok := s.LocalVertex(v)
		if ok != (want >= 0) || (ok && got != int32(want)) || s.Contains(v) != ok {
			t.Fatalf("%s: LocalVertex(%d) = %d,%v, scan finds %d", name, v, got, ok, want)
		}
		if got, ok := search(s.ToGlobal, v); ok != (want >= 0) || (ok && got != int32(want)) {
			t.Fatalf("%s: search for vertex %d = %d,%v, scan finds %d", name, v, got, ok, want)
		}
	}
	for id := EdgeID(-2); id < EdgeID(g.M())+2; id++ {
		want := slices.Index(s.EdgeToGlobal, id)
		got, ok := s.LocalEdge(id)
		if ok != (want >= 0) || (ok && got != EdgeID(want)) {
			t.Fatalf("%s: LocalEdge(%d) = %d,%v, scan finds %d", name, id, got, ok, want)
		}
		if got, ok := search(s.EdgeToGlobal, id); ok != (want >= 0) || (ok && got != EdgeID(want)) {
			t.Fatalf("%s: search for edge %d = %d,%v, scan finds %d", name, id, got, ok, want)
		}
	}
}

// TestSubgraphLookups checks the binary-search lookups on subgraphs from
// both constructors, including one whose vertex and edge columns have ids
// below their minimum, in gaps and above their maximum.
func TestSubgraphLookups(t *testing.T) {
	g := Grid(5, 5)
	verts := []int32{3, 4, 8, 9, 15, 16, 20}
	sub, err := Induced(g, verts, Inf)
	if err != nil {
		t.Fatal(err)
	}
	ids := sub.EdgeToGlobal
	if len(ids) < 3 || ids[0] == 0 || int(ids[len(ids)-1]) == g.M()-1 || ids[len(ids)-1]-ids[0] == EdgeID(len(ids)-1) {
		t.Fatalf("edge column %v lacks an id below, in a gap or above it", ids)
	}
	checkLookups(t, "grid/induced", g, sub)
	parts, err := SubgraphFromParts(g, slices.Clone(sub.ToGlobal), slices.Clone(sub.EdgeToGlobal))
	if err != nil {
		t.Fatal(err)
	}
	checkLookups(t, "grid/parts", g, parts)
	for _, x := range []int32{math.MinInt32, math.MaxInt32} {
		_, inV := sub.LocalVertex(x)
		_, inE := sub.LocalEdge(x)
		_, foundV := search(sub.ToGlobal, x)
		_, foundE := search(sub.EdgeToGlobal, x)
		if inV || inE || foundV || foundE {
			t.Fatalf("id %d found", x)
		}
	}
	empty, err := Induced(g, nil, Inf)
	if err != nil {
		t.Fatal(err)
	}
	checkLookups(t, "empty", g, empty)
}

// TestAddEdgeOnSlabGraphKeepsNeighbours grows the adjacency lists of a
// slab-built graph: each list is capped at its degree, so AddEdge must
// reallocate the list it grows and leave every other vertex's arcs as
// they were.
func TestAddEdgeOnSlabGraphKeepsNeighbours(t *testing.T) {
	rng := xrand.NewSplitMix64(12)
	for name, g := range slabMatrix() {
		if g.N() < 2 {
			continue
		}
		all := make([]int32, g.N())
		for v := range all {
			all[v] = int32(v)
		}
		want, err := Induced(g, all, Inf)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := SubgraphFromParts(g, want.ToGlobal, want.EdgeToGlobal)
		if err != nil {
			t.Fatal(err)
		}
		local := sub.Local
		for trial := 0; trial < 8; trial++ {
			before := snapshotAdj(local)
			u := int32(rng.Intn(local.N()))
			v := int32(rng.Intn(local.N() - 1))
			if v >= u {
				v++
			}
			id, err := local.AddEdge(u, v, 3)
			if err != nil {
				t.Fatal(err)
			}
			for x := int32(0); int(x) < local.N(); x++ {
				got := local.Adj(x)
				exp := before[x]
				if x == u || x == v {
					other := u + v - x
					exp = append(exp, Arc{To: other, E: id, W: 3})
				}
				if !slices.Equal(got, exp) {
					t.Fatalf("%s: AddEdge(%d,%d) changed the arcs of %d: %v, want %v", name, u, v, x, got, exp)
				}
			}
			if err := local.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// appendChildren is the reference Children construction: one append per
// tree vertex, in tree order.
func appendChildren(tr *Tree) [][]int32 {
	out := make([][]int32, tr.G.N())
	for _, v := range tr.Order {
		if v != tr.Root {
			out[tr.Parent[v]] = append(out[tr.Parent[v]], v)
		}
	}
	return out
}

func TestTreeChildrenMatchAppendBuilt(t *testing.T) {
	for name, g := range slabMatrix() {
		if g.N() == 0 {
			continue
		}
		root := int32(g.N() / 2)
		for _, tr := range []*Tree{BFSTree(g, 0, nil), BFSTree(g, root, nil), ShortestPathTree(g, root, nil)} {
			back, err := NewTreeFromParts(g, tr.Root, tr.Parent, tr.ParentEdge, tr.Order)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := appendChildren(tr)
			for _, got := range []*Tree{tr, back} {
				if !reflect.DeepEqual(got.Children, want) {
					t.Fatalf("%s: children differ from the append-built lists", name)
				}
				for v, cs := range got.Children {
					if cap(cs) != len(cs) {
						t.Fatalf("%s: children of %d have cap %d > len %d", name, v, cap(cs), len(cs))
					}
				}
			}
		}
	}
}
