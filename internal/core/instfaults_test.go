package core

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"ftrouting/internal/graph"
	"ftrouting/internal/sketch"
	"ftrouting/internal/xrand"
)

// wholeInstance builds a sketch instance over all of g, so local and
// global ids coincide.
func wholeInstance(t *testing.T, g *graph.Graph, seed uint64) (*graph.Subgraph, *SketchScheme) {
	t.Helper()
	all := make([]int32, g.N())
	for v := range all {
		all[v] = int32(v)
	}
	sub, err := graph.Induced(g, all, graph.Inf)
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildSketch(sub.Local, graph.BFSTree(sub.Local, 0, nil), SketchOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return sub, s
}

// TestRestrictFaults checks the restriction keeps the fault ids that lie
// in the instance, in ids order with duplicates, as local edge labels.
func TestRestrictFaults(t *testing.T) {
	g := graph.Grid(4, 4)
	sub, err := graph.Induced(g, []int32{0, 1, 4, 5}, graph.Inf)
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildSketch(sub.Local, graph.BFSTree(sub.Local, 0, nil), SketchOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	in0, in1 := sub.EdgeToGlobal[2], sub.EdgeToGlobal[0]
	out, _ := g.FindEdge(10, 11)
	fl := RestrictFaults(sub, s, []graph.EdgeID{in0, out, in1, in0})
	var got []graph.EdgeID
	for _, l := range fl {
		got = append(got, l.E)
	}
	if want := []graph.EdgeID{2, 0, 2}; !slices.Equal(got, want) {
		t.Fatalf("restricted local edges %v, want %v", got, want)
	}
	if fl := RestrictFaults(sub, s, []graph.EdgeID{out}); fl != nil {
		t.Fatalf("a fault outside the instance restricted to %v", fl)
	}
}

// TestInstanceFaultsCorruptedTreeFault corrupts one instance's ancestry
// labels so that PrepareFaults fails on its fault labels: every Context
// call for that instance, concurrent first uses included, returns the
// preparation error without a panic, while an intact instance holding the
// same fault prepares and decodes like the direct decoder, and an
// instance holding no fault gets its scheme's shared empty-fault context.
func TestInstanceFaultsCorruptedTreeFault(t *testing.T) {
	g := graph.RandomConnected(40, 70, 3)
	sub, bad := wholeInstance(t, g, 5)
	_, good := wholeInstance(t, g, 5)
	// A tree fault edge whose id lies past the 8 edges of the fault-free
	// instance below.
	fault := graph.EdgeID(-1)
	for id := graph.EdgeID(g.M() - 1); id >= 8; id-- {
		if bad.tree.InTree[id] {
			fault = id
			break
		}
	}
	if fault < 0 {
		t.Fatal("fixture has no tree edge past id 8")
	}
	e := g.Edge(fault)
	bad.anc[e.V] = bad.anc[e.U] // neither endpoint is a proper ancestor
	cycleSub, cycle := wholeInstance(t, graph.Cycle(8), 7)

	ids := []graph.EdgeID{fault}
	x := NewInstanceFaults(ids)
	badKey, goodKey, freeKey := InstanceKey{Scale: 0}, InstanceKey{Scale: 1}, InstanceKey{Scale: 2}
	for _, k := range []InstanceKey{badKey, goodKey, freeKey} {
		if x.Reached(k) {
			t.Fatalf("instance %+v reached before any Context call", k)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				ctx, err := x.Context(badKey, sub, bad)
				if err == nil || ctx != nil {
					errs <- "corrupted instance prepared without an error"
					return
				}
				if !strings.Contains(err.Error(), "non-nested endpoint intervals") {
					errs <- "unexpected error: " + err.Error()
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}

	ctx, err := x.Context(goodKey, sub, good)
	if err != nil || ctx == nil || ctx == &good.empty {
		t.Fatalf("intact instance: ctx %v, err %v", ctx, err)
	}
	fl := RestrictFaults(sub, good, ids)
	for v := int32(0); v < int32(g.N()); v += 3 {
		want, err := good.Decode(good.VertexLabel(e.U), good.VertexLabel(v), fl, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ctx.Decode(good.VertexLabel(e.U), good.VertexLabel(v), false)
		if err != nil {
			t.Fatal(err)
		}
		if got.Connected != want.Connected {
			t.Fatalf("pair (%d,%d): prepared %v, direct %v", e.U, v, got.Connected, want.Connected)
		}
	}

	if ctx, err := x.Context(freeKey, cycleSub, cycle); ctx != &cycle.empty || err != nil {
		t.Fatalf("fault-free instance: ctx %v (want the shared empty context %v), err %v", ctx, &cycle.empty, err)
	}
	for _, k := range []InstanceKey{badKey, goodKey, freeKey} {
		if !x.Reached(k) {
			t.Fatalf("instance %+v not reached after its Context call", k)
		}
	}
	if x.Reached(InstanceKey{Scale: 3}) {
		t.Fatal("an instance no Context call named is reached")
	}
}

// TestInstanceFaultsComponentTreeError corrupts the ancestry labels of
// tree faults' child sides so that their endpoint intervals still nest
// but comptree.Build rejects them: an empty interval, and a timestamp two
// child labels share. First reach must fail with the error the label
// path reports, before any decode builds the component tree.
func TestInstanceFaultsComponentTreeError(t *testing.T) {
	g := graph.RandomConnected(40, 70, 3)
	corruptions := []struct {
		name    string
		corrupt func(s *SketchScheme, a, b int32)
	}{
		{"empty interval", func(s *SketchScheme, a, _ int32) { s.anc[a].Out = s.anc[a].In }},
		{"shared timestamp", func(s *SketchScheme, a, b int32) { s.anc[b].Out = s.anc[a].Out }},
	}
	for _, tc := range corruptions {
		sub, s := wholeInstance(t, g, 5)
		tree := s.Tree()
		// Two tree faults: the parent edges of two leaves with one parent,
		// whose interval still contains both after either corruption.
		var leaves []int32
		for v := int32(0); v < int32(g.N()) && len(leaves) < 2; v++ {
			leaves = leaves[:0]
			for _, c := range tree.Children[v] {
				if len(tree.Children[c]) == 0 {
					leaves = append(leaves, c)
				}
			}
		}
		if len(leaves) < 2 {
			t.Fatal("fixture tree has no two sibling leaves")
		}
		tc.corrupt(s, leaves[0], leaves[1])
		ids := []graph.EdgeID{tree.ParentEdge[leaves[0]], tree.ParentEdge[leaves[1]]}
		ctx, err := NewInstanceFaults(ids).Context(InstanceKey{}, sub, s)
		_, want := s.PrepareFaults(RestrictFaults(sub, s, ids), 0)
		if want == nil || !strings.HasPrefix(want.Error(), "comptree: ") {
			t.Fatalf("%s: the label path prepared without a component tree error (%v)", tc.name, want)
		}
		if ctx != nil || err == nil || err.Error() != want.Error() {
			t.Fatalf("%s: first reach returned %v, %v; want the label path's error %q", tc.name, ctx, err, want)
		}
	}
}

// ballInstance returns the instance over the first half of in's vertices
// in BFS order from vertex 0, a connected subgraph of in's scheme graph,
// whose scheme has in's options: fault ids drawn from the component then
// include edges outside the instance.
func ballInstance(t testing.TB, in diffInstance) diffInstance {
	t.Helper()
	g := in.scheme.Graph()
	_, _, order := graph.BFS(g, 0, nil)
	ball := slices.Clone(order[:(len(order)+1)/2])
	slices.Sort(ball)
	sub, err := graph.Induced(g, ball, graph.Inf)
	if err != nil {
		t.Fatal(err)
	}
	opts := in.scheme.opts
	opts.Params = sketch.Params{}
	if in.scheme.Params().Units < 12 {
		opts.Params = sketch.DefaultParams(sub.Local.N(), sub.Local.M())
		opts.Params.Units = in.scheme.Params().Units
	}
	s, err := BuildSketch(sub.Local, graph.BFSTree(sub.Local, 0, nil), opts)
	if err != nil {
		t.Fatal(err)
	}
	return diffInstance{name: in.name + "/ball", scheme: s, g: g, sub: sub}
}

// instanceFaultIDs draws k global fault ids for in: each a tree edge of
// the instance, any edge of in.g (inside the instance or not) or a repeat
// of an id drawn before.
func instanceFaultIDs(in diffInstance, k int, rng *xrand.SplitMix64) []graph.EdgeID {
	tree := in.scheme.Tree()
	var ids []graph.EdgeID
	for len(ids) < k {
		switch r := rng.Intn(4); {
		case r < 2 && tree.Size() > 1:
			ids = append(ids, in.sub.EdgeToGlobal[tree.ParentEdge[1+rng.Intn(tree.Size()-1)]])
		case r == 2 && len(ids) > 0:
			ids = append(ids, ids[rng.Intn(len(ids))])
		default:
			ids = append(ids, graph.EdgeID(rng.Intn(in.g.M())))
		}
	}
	return ids
}

// instanceStats counts what checkInstanceFaults met, so the tests can
// show that they reached every case of the first-reach path.
type instanceStats struct {
	outside, duplicates, nonTree, empty, separated, builds int
}

// checkInstanceFaults prepares ids for in through InstanceFaults and
// fails unless every pair decodes to the verdict SketchScheme.Decode
// gives on the RestrictFaults labels, with and without a path; unless
// the separation test agrees with comptree.Locate on the component tree
// the labels prepare; and unless a context that built its sketches
// numbers the components as that tree does.
func checkInstanceFaults(t testing.TB, in diffInstance, ids []graph.EdgeID, pairs [][2]int32, st *instanceStats) {
	t.Helper()
	s := in.scheme
	ctx, err := NewInstanceFaults(ids).Context(InstanceKey{}, in.sub, s)
	fl := RestrictFaults(in.sub, s, ids)
	ref, rerr := s.PrepareFaults(fl, 0)
	if (err != nil) != (rerr != nil) || err != nil && err.Error() != rerr.Error() {
		t.Fatalf("%s faults %v: first reach error %v, label prepare error %v", in.name, ids, err, rerr)
	}
	if err != nil {
		return
	}
	if ctx.trivial() != ref.trivial() || ctx.trivial() != (ctx == &s.empty) {
		t.Fatalf("%s faults %v: first reach trivial %v (shared %v), labels trivial %v", in.name, ids, ctx.trivial(), ctx == &s.empty, ref.trivial())
	}
	if len(fl) < len(ids) {
		st.outside++
	}
	seen := make(map[graph.EdgeID]bool)
	for _, l := range fl {
		if seen[l.E] {
			st.duplicates++
		}
		seen[l.E] = true
		if !l.IsTree {
			st.nonTree++
		}
	}
	if ctx.trivial() {
		st.empty++
	}
	for _, p := range pairs {
		sv, tv := s.VertexLabel(p[0]), s.VertexLabel(p[1])
		if !ctx.trivial() {
			sep := ref.ct.Locate(sv.Anc) != ref.ct.Locate(tv.Anc)
			if ctx.separates(sv.Anc, tv.Anc) != sep {
				t.Fatalf("%s faults %v pair %v: separates %v, component tree %v", in.name, ids, p, !sep, sep)
			}
			if sep {
				st.separated++
			}
		}
		for _, wantPath := range []bool{false, true} {
			want, err := s.Decode(sv, tv, fl, 0, wantPath)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ctx.Decode(sv, tv, wantPath)
			if err != nil {
				t.Fatal(err)
			}
			if !sameVerdict(got, want) {
				t.Fatalf("%s faults %v pair %v path %v: first reach %+v, labels %+v", in.name, ids, p, wantPath, got, want)
			}
		}
	}
	if ctx.builds.Load() > 0 {
		st.builds++
		for v := int32(0); v < int32(s.Graph().N()); v++ {
			if got, want := ctx.ct.Locate(s.anc[v]), ref.ct.Locate(s.anc[v]); got != want {
				t.Fatalf("%s faults %v: vertex %d in component %d, labels number it %d", in.name, ids, v, got, want)
			}
		}
	}
}

// TestInstanceFaultsMatchLabelDecode checks the first-reach context
// against the label path over the generator matrix, each instance over
// its component and over a ball of it, with fault sets of one to six
// ids that mix instance tree edges, edges anywhere in the graph
// (outside the instance too) and repeats.
func TestInstanceFaultsMatchLabelDecode(t *testing.T) {
	rng := xrand.NewSplitMix64(47)
	var st instanceStats
	for _, whole := range diffInstances(t) {
		for _, in := range []diffInstance{whole, ballInstance(t, whole)} {
			n := int32(in.scheme.Graph().N())
			var pairs [][2]int32
			step := n/8 + 1
			for sv := int32(0); sv < n; sv += step {
				for tv := n - 1; tv >= 0; tv -= step/2 + 1 {
					pairs = append(pairs, [2]int32{sv, tv})
				}
			}
			for k := 1; k <= 6; k++ {
				for rep := 0; rep < 3; rep++ {
					checkInstanceFaults(t, in, instanceFaultIDs(in, k, rng), pairs, &st)
				}
			}
		}
	}
	t.Logf("%+v", st)
	if st.outside == 0 || st.duplicates == 0 || st.nonTree == 0 || st.empty == 0 || st.separated == 0 || st.builds == 0 {
		t.Fatal("the matrix missed a case of the first-reach path (see counts above)")
	}
}

// FuzzInstanceFaultsDecode checks the first-reach context against the
// label path on fuzzed fault ids and pairs: every byte pair of faults is
// a global id of the fixture's graph (at most eight, repeats and ids
// outside the instance included), and the decodes of four pairs must
// match SketchScheme.Decode on the RestrictFaults labels.
func FuzzInstanceFaultsDecode(f *testing.F) {
	var fixtures []diffInstance
	for _, s := range sketchFuzzFixtures(f) {
		g := s.Graph()
		all := make([]int32, g.N())
		for v := range all {
			all[v] = int32(v)
		}
		sub, err := graph.Induced(g, all, graph.Inf)
		if err != nil {
			f.Fatal(err)
		}
		whole := diffInstance{name: "whole", scheme: s, g: g, sub: sub}
		fixtures = append(fixtures, whole, ballInstance(f, whole))
	}
	f.Add(uint8(0), []byte{96, 0, 100, 0, 96, 0, 3, 0}, uint16(1), uint16(22))
	f.Add(uint8(1), []byte{2, 0, 5, 0, 200, 0}, uint16(0), uint16(11))
	f.Add(uint8(3), []byte{1, 0, 9, 0, 10, 0, 1, 0}, uint16(3), uint16(7))
	f.Add(uint8(6), []byte{1, 0, 2, 0, 7, 0, 11, 0}, uint16(0), uint16(23))
	f.Add(uint8(7), []byte{3, 0, 4, 0, 30, 0}, uint16(2), uint16(9))
	f.Fuzz(func(t *testing.T, which uint8, faults []byte, sv, tv uint16) {
		in := fixtures[int(which)%len(fixtures)]
		var ids []graph.EdgeID
		for i := 0; i+1 < len(faults) && len(ids) < 8; i += 2 {
			ids = append(ids, graph.EdgeID((int(faults[i])|int(faults[i+1])<<8)%in.g.M()))
		}
		n := in.scheme.Graph().N()
		a, b := int32(int(sv)%n), int32(int(tv)%n)
		var st instanceStats
		checkInstanceFaults(t, in, ids, [][2]int32{{a, b}, {b, a}, {a, int32(n - 1)}, {0, b}}, &st)
	})
}
