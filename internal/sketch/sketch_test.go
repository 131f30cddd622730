package sketch

import (
	"testing"

	"ftrouting/internal/ancestry"
	"ftrouting/internal/eid"
	"ftrouting/internal/graph"
	"ftrouting/internal/xrand"
)

// testEngine builds an engine over g with a plain (no routing payload)
// layout and real ancestry labels from a BFS tree rooted at 0.
func testEngine(t testing.TB, g *graph.Graph, unitSeed uint64) (*Engine, *graph.Tree, []ancestry.Label) {
	t.Helper()
	tree := graph.BFSTree(g, 0, nil)
	anc := ancestry.Build(tree)
	layout, err := eid.NewLayout(g.N(), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	const seedID = 0x51D
	enc := func(id graph.EdgeID) []uint64 {
		e := g.Edge(id)
		return layout.Encode(seedID, eid.Fields{
			U: e.U, V: e.V,
			AncU: anc[e.U], AncV: anc[e.V],
		})
	}
	eng, err := NewEngine(g, layout, DefaultParams(g.N(), g.M()), seedID, unitSeed, enc)
	if err != nil {
		t.Fatal(err)
	}
	return eng, tree, anc
}

func TestVertexSketchSelfInverse(t *testing.T) {
	g := graph.RandomConnected(30, 40, 1)
	eng, _, _ := testEngine(t, g, 7)
	s := eng.VertexSketch(5)
	s.Xor(eng.VertexSketch(5))
	if !s.IsZero() {
		t.Fatal("v XOR v != 0")
	}
}

func TestWholeGraphSketchIsZero(t *testing.T) {
	// XOR over all vertices: every edge contributes twice and cancels.
	g := graph.RandomConnected(25, 35, 2)
	eng, _, _ := testEngine(t, g, 9)
	s := eng.NewSketch()
	for v := int32(0); v < int32(g.N()); v++ {
		eng.AddVertex(s, v)
	}
	if !s.IsZero() {
		t.Fatal("Sketch(V) != 0")
	}
}

func TestSingletonFindsItsOnlyEdge(t *testing.T) {
	// A leaf vertex has exactly one incident edge; every unit should find it
	// at level 0 if nothing else is sampled there — and in general the
	// sketch of a degree-1 vertex must expose exactly that edge.
	g := graph.Star(10)
	eng, _, _ := testEngine(t, g, 3)
	for leaf := int32(1); leaf < 10; leaf++ {
		s := eng.VertexSketch(leaf)
		found := false
		for unit := 0; unit < eng.Params().Units; unit++ {
			var f eid.Fields
			if eng.FindOutgoingInto(s, unit, &f) {
				if (f.U != 0 || f.V != leaf) && (f.U != leaf || f.V != 0) {
					t.Fatalf("leaf %d: found wrong edge (%d,%d)", leaf, f.U, f.V)
				}
				found = true
			}
		}
		if !found {
			t.Fatalf("leaf %d: no unit found the only incident edge", leaf)
		}
	}
}

func TestFindOutgoingFromVertexSets(t *testing.T) {
	// For random connected subsets S with outgoing edges, the XOR sketch
	// should usually expose a genuine outgoing edge; count per-unit success
	// to validate the constant-probability claim of Lemma 3.13, and verify
	// every returned edge is real and outgoing.
	g := graph.RandomConnected(60, 90, 4)
	eng, tree, _ := testEngine(t, g, 11)
	rng := xrand.NewSplitMix64(5)
	successes, queries := 0, 0
	for trial := 0; trial < 60; trial++ {
		// Random subtree-ish set: take a random vertex and its tree
		// descendants up to a random size cap.
		root := int32(rng.Intn(60))
		inS := make(map[int32]bool)
		stack := []int32{root}
		cap := 1 + rng.Intn(20)
		for len(stack) > 0 && len(inS) < cap {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if inS[v] {
				continue
			}
			inS[v] = true
			stack = append(stack, tree.Children[v]...)
		}
		s := eng.NewSketch()
		for v := range inS {
			eng.AddVertex(s, v)
		}
		// Ground truth outgoing edges.
		outgoing := map[[2]int32]bool{}
		for id := graph.EdgeID(0); int(id) < g.M(); id++ {
			e := g.Edge(id)
			if inS[e.U] != inS[e.V] {
				u, v := e.Canon()
				outgoing[[2]int32{u, v}] = true
			}
		}
		if len(outgoing) == 0 {
			continue
		}
		for unit := 0; unit < eng.Params().Units; unit++ {
			queries++
			var f eid.Fields
			if !eng.FindOutgoingInto(s, unit, &f) {
				continue
			}
			if !outgoing[[2]int32{f.U, f.V}] {
				t.Fatalf("trial %d unit %d: returned non-outgoing edge (%d,%d)", trial, unit, f.U, f.V)
			}
			successes++
		}
	}
	if queries == 0 {
		t.Fatal("no queries executed")
	}
	rate := float64(successes) / float64(queries)
	if rate < 0.2 {
		t.Fatalf("outgoing-edge success rate %.3f too low for Lemma 3.13", rate)
	}
}

func TestSubtreeSketchEqualsManualXor(t *testing.T) {
	g := graph.RandomConnected(40, 55, 6)
	eng, tree, _ := testEngine(t, g, 13)
	for _, v := range []int32{0, 3, 17, 39} {
		got := eng.SubtreeSketch(tree, v)
		want := eng.NewSketch()
		var rec func(u int32)
		rec = func(u int32) {
			eng.AddVertex(want, u)
			for _, c := range tree.Children[u] {
				rec(c)
			}
		}
		rec(v)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("subtree sketch of %d differs at word %d", v, i)
			}
		}
	}
}

func TestCancelEdgeRemovesContribution(t *testing.T) {
	g := graph.Cycle(8)
	eng, _, _ := testEngine(t, g, 15)
	v := int32(3)
	s := eng.VertexSketch(v)
	// Cancel both incident edges; sketch must become zero.
	for _, a := range g.Adj(v) {
		e := g.Edge(a.E)
		uid := eid.UID(eng.SeedID(), e.U, e.V)
		eng.CancelEdge(s, uid, eng.edgeWords(a.E))
	}
	if !s.IsZero() {
		t.Fatal("cancelling all incident edges should zero the sketch")
	}
}

// TestSetXorReportsNonzero checks that SetXor writes a XOR b, leaves
// both inputs as they were, and reports a zero union: the two sides of a
// cycle's cut cancel, a vertex and its neighbour do not.
func TestSetXorReportsNonzero(t *testing.T) {
	g := graph.Cycle(8)
	eng, _, _ := testEngine(t, g, 5)
	left, right := eng.NewSketch(), eng.NewSketch()
	for v := int32(0); v < 8; v++ {
		if v < 4 {
			eng.AddVertex(left, v)
		} else {
			eng.AddVertex(right, v)
		}
	}
	leftWas, rightWas := left.Clone(), right.Clone()
	out := eng.NewSketch()
	if out.SetXor(left, right) || !out.IsZero() {
		t.Fatal("the union of both sides of a cut must be zero and reported zero")
	}
	a, b := eng.VertexSketch(0), eng.VertexSketch(1)
	if !out.SetXor(a, b) {
		t.Fatal("the union of two adjacent vertices has outgoing edges but was reported zero")
	}
	want := a.Clone()
	want.Xor(b)
	for i := range want {
		if out[i] != want[i] || left[i] != leftWas[i] || right[i] != rightWas[i] {
			t.Fatalf("word %d: SetXor wrote the wrong union or changed an input", i)
		}
	}
}

func TestCancellationMatchesFaultFreeSketch(t *testing.T) {
	// Sketch of S in G minus contributions of faulty outgoing edges equals
	// the sketch computed in G\F directly. This is exactly Step 3.
	g := graph.RandomConnected(30, 45, 8)
	eng, _, _ := testEngine(t, g, 21)
	inS := map[int32]bool{2: true, 7: true, 11: true, 29: true}
	faults := graph.RandomFaults(g, 6, 3)

	withF := eng.NewSketch()
	for v := range inS {
		eng.AddVertex(withF, v)
	}
	for _, id := range faults {
		e := g.Edge(id)
		// Only edges with exactly one endpoint in S contribute to the set
		// sketch; internal ones already cancelled; external ones never
		// appeared.
		if inS[e.U] != inS[e.V] {
			eng.CancelEdge(withF, eid.UID(eng.SeedID(), e.U, e.V), eng.edgeWords(id))
		}
	}

	// Direct computation in G\F: XOR identifiers of non-faulty edges with
	// exactly one endpoint in S.
	direct := eng.NewSketch()
	faultSet := graph.NewEdgeSet(faults...)
	for id := graph.EdgeID(0); int(id) < g.M(); id++ {
		if faultSet[id] {
			continue
		}
		e := g.Edge(id)
		if inS[e.U] != inS[e.V] {
			eng.xorEdge(direct, eng.uids[id], eng.edgeWords(id))
		}
	}
	for i := range withF {
		if withF[i] != direct[i] {
			t.Fatalf("cancelled sketch differs from fault-free sketch at word %d", i)
		}
	}
}

func TestIndependentUnitSeedsDiffer(t *testing.T) {
	g := graph.RandomConnected(20, 30, 9)
	a, _, _ := testEngine(t, g, 100)
	b, _, _ := testEngine(t, g, 200)
	sa, sb := a.VertexSketch(4), b.VertexSketch(4)
	same := true
	for i := range sa {
		if sa[i] != sb[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different unit seeds produced identical sketches")
	}
	// But UIDs (seedID) are shared, so identifiers agree.
	if a.uids[0] != b.uids[0] {
		t.Fatal("seedID must be shared across copies")
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams(1000, 5000)
	if p.Units < 12 || p.Levels < 12 {
		t.Fatalf("params too small: %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Params{}).Validate(); err == nil {
		t.Fatal("zero params accepted")
	}
	tiny := DefaultParams(1, 0)
	if err := tiny.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBitsAccounting(t *testing.T) {
	g := graph.RandomConnected(100, 150, 2)
	eng, _, _ := testEngine(t, g, 5)
	if eng.Bits() != 64*eng.Words() {
		t.Fatal("Bits != 64*Words")
	}
	if eng.Words() != eng.Params().Units*eng.Params().Levels*eng.Layout().Words() {
		t.Fatal("Words accounting wrong")
	}
}

func BenchmarkVertexSketch(b *testing.B) {
	g := graph.RandomConnected(500, 1500, 1)
	eng, _, _ := testEngine(b, g, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.VertexSketch(int32(i % 500))
	}
}
