package cyclespace

import (
	"testing"

	"ftrouting/internal/bitvec"
	"ftrouting/internal/graph"
	"ftrouting/internal/xrand"
)

// randomInducedCut returns delta(S) for a random vertex subset S.
func randomInducedCut(g *graph.Graph, rng *xrand.SplitMix64) []graph.EdgeID {
	inS := make([]bool, g.N())
	for v := range inS {
		inS[v] = rng.Intn(2) == 1
	}
	var cut []graph.EdgeID
	for id := graph.EdgeID(0); int(id) < g.M(); id++ {
		e := g.Edge(id)
		if inS[e.U] != inS[e.V] {
			cut = append(cut, id)
		}
	}
	return cut
}

func TestInducedCutsAlwaysXorToZero(t *testing.T) {
	rng := xrand.NewSplitMix64(1)
	for trial := 0; trial < 20; trial++ {
		g := graph.RandomConnected(40, 50, uint64(trial))
		tree := graph.BFSTree(g, 0, nil)
		labels, err := Assign(tree, 24, uint64(trial)+7)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 20; rep++ {
			cut := randomInducedCut(g, rng)
			if !labels.LooksLikeInducedCut(cut) {
				t.Fatalf("trial %d rep %d: induced cut of size %d XORs nonzero", trial, rep, len(cut))
			}
		}
	}
}

func TestNonCutsRarelyXorToZero(t *testing.T) {
	rng := xrand.NewSplitMix64(2)
	g := graph.RandomConnected(40, 60, 5)
	tree := graph.BFSTree(g, 0, nil)
	labels, err := Assign(tree, 40, 11)
	if err != nil {
		t.Fatal(err)
	}
	falsePositives, tested := 0, 0
	for rep := 0; rep < 2000; rep++ {
		k := 1 + rng.Intn(6)
		f := graph.RandomFaults(g, k, uint64(rep))
		if IsInducedCut(g, f) {
			continue
		}
		tested++
		if labels.LooksLikeInducedCut(f) {
			falsePositives++
		}
	}
	if tested < 500 {
		t.Fatalf("too few non-cut samples: %d", tested)
	}
	// With b=40 bits, expected false positive rate 2^-40.
	if falsePositives > 0 {
		t.Fatalf("%d false positives out of %d at b=40", falsePositives, tested)
	}
}

func TestErrorRateMatchesB(t *testing.T) {
	// At b=1 a non-cut passes with probability ~1/2: check the rate is in a
	// plausible band, validating the 2^-b claim at its extreme.
	g := graph.RandomConnected(30, 40, 9)
	tree := graph.BFSTree(g, 0, nil)
	pass, tested := 0, 0
	for rep := 0; rep < 600; rep++ {
		labels, err := Assign(tree, 1, uint64(rep))
		if err != nil {
			t.Fatal(err)
		}
		f := graph.RandomFaults(g, 3, uint64(rep)+1000)
		if IsInducedCut(g, f) {
			continue
		}
		tested++
		if labels.LooksLikeInducedCut(f) {
			pass++
		}
	}
	rate := float64(pass) / float64(tested)
	if rate < 0.35 || rate > 0.65 {
		t.Fatalf("b=1 false-positive rate %.3f, want about 0.5", rate)
	}
}

func TestBridgesHaveZeroLabels(t *testing.T) {
	// In a barbell (two triangles joined by a bridge), the bridge alone is
	// an induced cut, so its label must be exactly zero.
	g := graph.New(6)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 0, 1)
	bridge := g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(3, 4, 1)
	g.MustAddEdge(4, 5, 1)
	g.MustAddEdge(5, 3, 1)
	tree := graph.BFSTree(g, 0, nil)
	labels, err := Assign(tree, 32, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !labels.Phi(bridge).IsZero() {
		t.Fatal("bridge label must be zero")
	}
}

func TestTreeGraphAllZero(t *testing.T) {
	// In a tree every edge subset is an induced cut, so all labels are zero.
	g := graph.RandomTree(30, 4)
	tree := graph.BFSTree(g, 0, nil)
	labels, err := Assign(tree, 16, 9)
	if err != nil {
		t.Fatal(err)
	}
	for id := graph.EdgeID(0); int(id) < g.M(); id++ {
		if !labels.Phi(id).IsZero() {
			t.Fatalf("tree edge %d has nonzero label", id)
		}
	}
}

func TestXorLinearity(t *testing.T) {
	// The symmetric difference of two induced cuts is an induced cut; its
	// XOR must also be zero, exercising label linearity.
	rng := xrand.NewSplitMix64(10)
	g := graph.RandomConnected(25, 30, 2)
	tree := graph.BFSTree(g, 0, nil)
	labels, err := Assign(tree, 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := randomInducedCut(g, rng)
	b := randomInducedCut(g, rng)
	inA := graph.NewEdgeSet(a...)
	inB := graph.NewEdgeSet(b...)
	var sym []graph.EdgeID
	for id := graph.EdgeID(0); int(id) < g.M(); id++ {
		if inA[id] != inB[id] {
			sym = append(sym, id)
		}
	}
	if !IsInducedCut(g, sym) {
		t.Fatal("symmetric difference of cuts must be a cut")
	}
	if !labels.LooksLikeInducedCut(sym) {
		t.Fatal("symmetric difference XORs nonzero")
	}
}

func TestIsInducedCutGroundTruth(t *testing.T) {
	// Path 0-1-2: the middle edge is delta({0,1}); the pair of edges is
	// delta({1}); one edge of a triangle is not a cut.
	p := graph.Path(3)
	if !IsInducedCut(p, []graph.EdgeID{0}) || !IsInducedCut(p, []graph.EdgeID{0, 1}) {
		t.Fatal("path cuts misclassified")
	}
	if !IsInducedCut(p, nil) {
		t.Fatal("empty set is delta(empty)")
	}
	tri := graph.Cycle(3)
	if IsInducedCut(tri, []graph.EdgeID{0}) {
		t.Fatal("single triangle edge is not an induced cut")
	}
	if !IsInducedCut(tri, []graph.EdgeID{0, 1}) {
		t.Fatal("two triangle edges are delta({shared vertex})")
	}
	if IsInducedCut(tri, []graph.EdgeID{0, 1, 2}) {
		t.Fatal("a full triangle is a circulation, not a cut")
	}
}

func TestAssignRejectsBadB(t *testing.T) {
	g := graph.Path(3)
	tree := graph.BFSTree(g, 0, nil)
	if _, err := Assign(tree, 0, 1); err == nil {
		t.Fatal("b=0 accepted")
	}
}

func TestDisconnectedGraphZeroOutside(t *testing.T) {
	g := graph.New(6)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 0, 1)
	far := g.MustAddEdge(3, 4, 1)
	tree := graph.BFSTree(g, 0, nil) // spans only component of 0
	labels, err := Assign(tree, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !labels.Phi(far).IsZero() {
		t.Fatal("edge outside tree component must have zero label")
	}
}

func BenchmarkAssign(b *testing.B) {
	g := graph.RandomConnected(1000, 3000, 1)
	tree := graph.BFSTree(g, 0, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Assign(tree, 64, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// assignPerEdge is the reference construction Assign replaced: one
// bitvec allocation per edge and per vertex, tree-edge labels cloned
// from the accumulators. Assign must reproduce it bit for bit.
func assignPerEdge(t *graph.Tree, b int, seed uint64) []bitvec.Vec {
	g := t.G
	rng := xrand.NewSplitMix64(seed)
	phi := make([]bitvec.Vec, g.M())
	acc := make([]bitvec.Vec, g.N())
	for v := range acc {
		acc[v] = bitvec.New(b)
	}
	for id := graph.EdgeID(0); int(id) < g.M(); id++ {
		e := g.Edge(id)
		if t.InTree[id] {
			continue
		}
		if !t.Contains(e.U) || !t.Contains(e.V) {
			phi[id] = bitvec.New(b)
			continue
		}
		v := bitvec.Random(b, rng)
		phi[id] = v
		acc[e.U].XorInPlace(v)
		acc[e.V].XorInPlace(v)
	}
	for i := len(t.Order) - 1; i >= 0; i-- {
		v := t.Order[i]
		if v == t.Root {
			continue
		}
		phi[t.ParentEdge[v]] = acc[v].Clone()
		acc[t.Parent[v]].XorInPlace(acc[v])
	}
	return phi
}

func TestAssignMatchesPerEdgeReference(t *testing.T) {
	islands := graph.Islands(3, 30, 40, 5)
	trees := map[string]*graph.Tree{
		"random":      graph.BFSTree(graph.RandomConnected(80, 150, 1), 0, nil),
		"grid-sp":     graph.ShortestPathTree(graph.WithRandomWeights(graph.Grid(6, 9), 5, 2), 20, nil),
		"tree-only":   graph.BFSTree(graph.RandomTree(40, 3), 7, nil),
		"islands":     graph.BFSTree(islands, 0, nil), // spans one of three components
		"islands-mid": graph.BFSTree(islands, 45, nil),
		"complete":    graph.BFSTree(graph.Complete(12), 4, nil),
	}
	for name, tree := range trees {
		for _, b := range []int{40, 64, 65, 130} {
			seed := uint64(b) * 7
			got, err := Assign(tree, b, seed)
			if err != nil {
				t.Fatal(err)
			}
			want := assignPerEdge(tree, b, seed)
			for id := range want {
				phi := got.Phi(graph.EdgeID(id))
				if phi.Len() != b || !phi.Equal(want[id]) {
					t.Fatalf("%s b=%d: edge %d label %v, want %v", name, b, id, phi, want[id])
				}
				if w := phi.Words(); cap(w) != len(w) {
					t.Fatalf("%s b=%d: edge %d label words have cap %d > len %d", name, b, id, cap(w), len(w))
				}
			}
		}
	}
}
