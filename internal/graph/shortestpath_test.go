package graph

import (
	"testing"

	"ftrouting/internal/xrand"
)

// bellmanFord is a reference implementation for differential testing.
func bellmanFord(g *Graph, src int32, skip SkipFunc) []int64 {
	n := g.N()
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for id, e := range g.Edges() {
			if skip != nil && skip(EdgeID(id)) {
				continue
			}
			if dist[e.U]+e.W < dist[e.V] {
				dist[e.V] = dist[e.U] + e.W
				changed = true
			}
			if dist[e.V]+e.W < dist[e.U] {
				dist[e.U] = dist[e.V] + e.W
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func TestDijkstraAgainstBellmanFord(t *testing.T) {
	rng := xrand.NewSplitMix64(12)
	for trial := 0; trial < 20; trial++ {
		g := WithRandomWeights(RandomConnected(35, 50, uint64(trial)), 20, uint64(trial)+100)
		src := int32(rng.Intn(35))
		faults := NewEdgeSet(RandomFaults(g, rng.Intn(10), uint64(trial)+55)...)
		skip := SkipSet(faults)
		got, parent, parentEdge, order := Dijkstra(g, src, skip)
		want := bellmanFord(g, src, skip)
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("trial %d: dist[%d] = %d, want %d", trial, v, got[v], want[v])
			}
		}
		// Parent pointers must realize the distances.
		for _, v := range order {
			if v == src {
				continue
			}
			p, pe := parent[v], parentEdge[v]
			if got[v] != got[p]+g.Edge(pe).W {
				t.Fatalf("trial %d: parent edge does not realize dist at %d", trial, v)
			}
		}
	}
}

func TestDijkstraUnweightedEqualsBFS(t *testing.T) {
	g := Grid(5, 6)
	dist, _, _, _ := Dijkstra(g, 3, nil)
	parent, _, _ := BFS(g, 3, nil)
	depth := make([]int64, g.N())
	for v := range depth {
		depth[v] = -1
	}
	// Compute BFS hop depth by walking parents.
	var hops func(v int32) int64
	hops = func(v int32) int64 {
		if v == 3 {
			return 0
		}
		if depth[v] >= 0 {
			return depth[v]
		}
		depth[v] = hops(parent[v]) + 1
		return depth[v]
	}
	for v := int32(0); v < int32(g.N()); v++ {
		if dist[v] != hops(v) {
			t.Fatalf("dist[%d] = %d, bfs %d", v, dist[v], hops(v))
		}
	}
}

func TestMultiSourceDijkstra(t *testing.T) {
	g := Path(10)
	dist, _, _, _ := MultiSourceDijkstra(g, []int32{0, 9}, nil, Inf)
	for v := int32(0); v < 10; v++ {
		want := min64(int64(v), int64(9-v))
		if dist[v] != want {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], want)
		}
	}
}

func TestMultiSourceDijkstraLimit(t *testing.T) {
	g := Path(10)
	dist, _, _, order := MultiSourceDijkstra(g, []int32{0}, nil, 3)
	if len(order) != 4 {
		t.Fatalf("explored %d vertices, want 4", len(order))
	}
	if dist[3] != 3 || dist[4] != Inf {
		t.Fatalf("limit not respected: dist[3]=%d dist[4]=%d", dist[3], dist[4])
	}
}

func TestDistanceAndEccentricity(t *testing.T) {
	g := Path(6)
	if Distance(g, 0, 5, nil) != 5 {
		t.Fatal("path distance")
	}
	if Distance(g, 2, 2, nil) != 0 {
		t.Fatal("self distance")
	}
	if Eccentricity(g, 0, nil) != 5 || Eccentricity(g, 2, nil) != 3 {
		t.Fatal("eccentricity")
	}
	cut, _ := g.FindEdge(2, 3)
	if Distance(g, 0, 5, SkipSet(NewEdgeSet(cut))) != Inf {
		t.Fatal("fault not respected")
	}
}

func TestDiameterUpperBound(t *testing.T) {
	g := Path(8)
	b := DiameterUpperBound(g)
	if b < 7 || b > 14 {
		t.Fatalf("bound = %d, want within [7,14]", b)
	}
	// Disconnected graph takes max over components.
	h := New(6)
	h.MustAddEdge(0, 1, 10)
	h.MustAddEdge(2, 3, 1)
	b = DiameterUpperBound(h)
	if b < 10 {
		t.Fatalf("bound = %d, want >= 10", b)
	}
}

func TestShortestPathTreeRealizesDistances(t *testing.T) {
	g := WithRandomWeights(RandomConnected(40, 70, 2), 9, 3)
	tree := ShortestPathTree(g, 5, nil)
	dist, _, _, _ := Dijkstra(g, 5, nil)
	wd := tree.WeightedDepth()
	for v := int32(0); v < int32(g.N()); v++ {
		if wd[v] != dist[v] {
			t.Fatalf("tree depth[%d] = %d, dist %d", v, wd[v], dist[v])
		}
	}
}

func TestPathWeightOf(t *testing.T) {
	g := Path(5)
	w, ok := PathWeightOf(g, []int32{0, 1, 2, 3}, nil)
	if !ok || w != 3 {
		t.Fatalf("w=%d ok=%v", w, ok)
	}
	if _, ok := PathWeightOf(g, []int32{0, 2}, nil); ok {
		t.Fatal("accepted non-edge")
	}
	cut, _ := g.FindEdge(1, 2)
	if _, ok := PathWeightOf(g, []int32{0, 1, 2}, SkipSet(NewEdgeSet(cut))); ok {
		t.Fatal("accepted faulty edge")
	}
	if w, ok := PathWeightOf(g, []int32{4}, nil); !ok || w != 0 {
		t.Fatal("singleton path")
	}
}

func TestInduced(t *testing.T) {
	g := WithRandomWeights(Grid(4, 4), 5, 1)
	verts := []int32{0, 1, 2, 4, 5, 6}
	sub, err := Induced(g, verts, Inf)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Local.N() != 6 {
		t.Fatalf("local N = %d", sub.Local.N())
	}
	// Every local edge corresponds to a global edge between mapped vertices.
	for le := EdgeID(0); int(le) < sub.Local.M(); le++ {
		e := sub.Local.Edge(le)
		ge := g.Edge(sub.EdgeToGlobal[le])
		gu, gv := sub.ToGlobal[e.U], sub.ToGlobal[e.V]
		if !(ge.U == gu && ge.V == gv) && !(ge.U == gv && ge.V == gu) {
			t.Fatalf("edge mapping broken at %d", le)
		}
		if e.W != ge.W {
			t.Fatal("weight not preserved")
		}
		// PortIn must address the real global arc.
		for _, lv := range []int32{e.U, e.V} {
			port := sub.PortIn(g, le, lv)
			a := g.ArcAt(sub.ToGlobal[lv], port)
			if a.E != sub.EdgeToGlobal[le] {
				t.Fatal("PortIn mismatch")
			}
		}
	}
	// All qualifying global edges present.
	count := 0
	inSet := map[int32]bool{}
	for _, v := range verts {
		inSet[v] = true
	}
	for _, e := range g.Edges() {
		if inSet[e.U] && inSet[e.V] {
			count++
		}
	}
	if sub.Local.M() != count {
		t.Fatalf("local M = %d, want %d", sub.Local.M(), count)
	}
}

func TestInducedMaxW(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(1, 2, 10)
	sub, err := Induced(g, []int32{0, 1, 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Local.M() != 1 {
		t.Fatalf("heavy edge not filtered: M=%d", sub.Local.M())
	}
}

func TestInducedErrors(t *testing.T) {
	g := Path(4)
	if _, err := Induced(g, []int32{0, 0}, Inf); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, err := Induced(g, []int32{0, 9}, Inf); err == nil {
		t.Fatal("out of range accepted")
	}
	if _, err := Induced(g, []int32{2, 0, 1}, Inf); err == nil {
		t.Fatal("unsorted vertices accepted")
	}
}

func TestSortedCopy(t *testing.T) {
	in := []int32{3, 1, 2}
	out := SortedCopy(in)
	if out[0] != 1 || out[1] != 2 || out[2] != 3 {
		t.Fatalf("out = %v", out)
	}
	if in[0] != 3 {
		t.Fatal("input mutated")
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
