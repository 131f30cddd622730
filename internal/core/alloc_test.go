package core

import (
	"fmt"
	"testing"

	"ftrouting/internal/graph"
)

// The warm-path allocation gates: after PrepareFaults, repeated decodes
// must run entirely on pooled scratch. These tests are the enforcement
// half of the zero-allocation serving path — they fail CI if a change
// reintroduces per-query heap traffic.

func sketchAllocFixture(t testing.TB) (*SketchScheme, *SketchFaultContext) {
	t.Helper()
	g := graph.RandomConnected(120, 220, 31)
	tree := graph.BFSTree(g, 0, nil)
	s, err := BuildSketch(g, tree, SketchOptions{Copies: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	ids := graph.RandomFaults(g, 5, 17)
	labels := make([]SketchEdgeLabel, len(ids))
	for i, id := range ids {
		labels[i] = s.EdgeLabel(id)
	}
	ctx, err := s.PrepareFaults(labels, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s, ctx
}

func TestSketchFaultContextDecodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate: race instrumentation allocates")
	}
	s, ctx := sketchAllocFixture(t)
	pairs := make([][2]SketchVertexLabel, 16)
	for i := range pairs {
		pairs[i] = [2]SketchVertexLabel{
			s.VertexLabel(int32(i * 7 % 120)),
			s.VertexLabel(int32((i*13 + 40) % 120)),
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		p := pairs[i%len(pairs)]
		i++
		if _, err := ctx.Decode(p[0], p[1], false); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm SketchFaultContext.Decode allocates %.1f/op, want 0", allocs)
	}
}

func TestSketchFaultContextDecodeIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate: race instrumentation allocates")
	}
	s, ctx := sketchAllocFixture(t)
	var path SuccinctPath
	sv := s.VertexLabel(3)
	tv := s.VertexLabel(int32(118))
	// One unmeasured call grows the reused path to its steady-state size.
	if _, err := ctx.DecodeInto(sv, tv, &path); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ctx.DecodeInto(sv, tv, &path); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm SketchFaultContext.DecodeInto allocates %.1f/op, want 0", allocs)
	}
}

func TestCutFaultContextDecodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate: race instrumentation allocates")
	}
	g := graph.RandomConnected(60, 90, 12)
	tree := graph.BFSTree(g, 0, nil)
	s, err := BuildCut(g, tree, CutOptions{MaxFaults: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ids := graph.RandomFaults(g, 3, 9)
	labels := make([]CutEdgeLabel, len(ids))
	for i, id := range ids {
		labels[i] = s.EdgeLabel(id)
	}
	ctx := PrepareCutFaults(labels)
	sv := s.VertexLabel(2)
	tv := s.VertexLabel(55)
	allocs := testing.AllocsPerRun(100, func() {
		ctx.Decode(sv, tv)
	})
	if allocs != 0 {
		t.Fatalf("warm CutFaultContext.Decode allocates %.1f/op, want 0", allocs)
	}
}

// TestCutFaultContextFreshZeroAlloc decodes once on each of a stream of
// freshly prepared cut contexts of interleaved |F| and b — the shape of
// a shard load, which prepares new contexts for every request. The
// package pool hands each new context the scratch earlier contexts grew,
// so not even a first Decode allocates.
func TestCutFaultContextFreshZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate: race instrumentation allocates")
	}
	cases := cutPoolContexts(t)
	const runs = 64
	// AllocsPerRun makes one unmeasured call first; cases[0] is the
	// widest system, so that call grows the scratch to its high-water
	// mark.
	fresh := make([]*CutFaultContext, runs+1)
	for i := range fresh {
		fresh[i] = PrepareCutFaults(cases[i%len(cases)].labels)
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		s := cases[i%len(cases)].s
		fresh[i].Decode(s.VertexLabel(1), s.VertexLabel(17))
		i++
	})
	if allocs != 0 {
		t.Fatalf("first Decode on a fresh CutFaultContext allocates %.1f/op, want 0", allocs)
	}
}

// prepareAllocs is what a warm sketch PrepareFaults may allocate: the
// context, its component tree and the tree's three arrays, and the owned
// inputs of Steps 2-3. Step 1 runs in the pooled prepScratch and Steps 2-3
// wait for the first separated decode, so the count grows neither with |F|
// nor with the instance.
const prepareAllocs = 6

// firstSeparatedAllocs is what the first decode of a pair the faults
// separate may allocate on a fresh context: Steps 2-3 keep the component
// slice and the slab of nonzero sketches and run in the pooled
// prepScratch, so the count does not grow with |F| either.
const firstSeparatedAllocs = 2

// allocFaultSets calls visit with fault label sets of one to six faults,
// mostly tree edges, on a small and a larger instance, with and without
// routing payloads.
func allocFaultSets(t *testing.T, visit func(name string, s *SketchScheme, labels []SketchEdgeLabel)) {
	t.Helper()
	cases := []struct {
		name string
		g    *graph.Graph
		opts SketchOptions
	}{
		{"random", graph.RandomConnected(120, 220, 31), SketchOptions{Copies: 2, Seed: 8}},
		{"ring-cliques", graph.RingOfCliques(32, 12), SketchOptions{Seed: 9}},
		{"route-payload", graph.RandomConnected(60, 90, 5), SketchOptions{Seed: 10, ExtraWords: 2,
			PortOf:  func(e graph.EdgeID, at int32) int32 { return int32(e) % 7 },
			ExtraOf: func(v int32) []uint64 { return []uint64{uint64(v), ^uint64(v)} }}},
	}
	for _, tc := range cases {
		s, err := BuildSketch(tc.g, graph.BFSTree(tc.g, 0, nil), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= 6; k++ {
			labels := make([]SketchEdgeLabel, k)
			for i := range labels {
				id := s.Tree().ParentEdge[1+(i*37+k)%(tc.g.N()-1)]
				if i%3 == 2 {
					id = graph.EdgeID((i*53 + k) % tc.g.M())
				}
				labels[i] = s.EdgeLabel(id)
			}
			visit(fmt.Sprintf("%s |F|=%d", tc.name, k), s, labels)
		}
	}
}

// TestSketchPrepareFaultsAllocs gates warm PrepareFaults calls.
func TestSketchPrepareFaultsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate: race instrumentation allocates")
	}
	allocFaultSets(t, func(name string, s *SketchScheme, labels []SketchEdgeLabel) {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := s.PrepareFaults(labels, 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > prepareAllocs {
			t.Errorf("%s: warm PrepareFaults allocates %.1f/op, want <= %d", name, allocs, prepareAllocs)
		}
	})
}

// freshPairDecodeAllocs prepares runs+1 fresh contexts of labels and
// measures the first Decode of (sv, tv) on each: AllocsPerRun's unmeasured
// first call fills the pools. It returns the allocations per decode and
// the contexts.
func freshPairDecodeAllocs(t *testing.T, s *SketchScheme, labels []SketchEdgeLabel, sv, tv SketchVertexLabel) (float64, []*SketchFaultContext) {
	t.Helper()
	const runs = 20
	fresh := make([]*SketchFaultContext, runs+1)
	for i := range fresh {
		ctx, err := s.PrepareFaults(labels, 0)
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = ctx
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := fresh[i].Decode(sv, tv, false); err != nil {
			t.Fatal(err)
		}
		i++
	})
	return allocs, fresh
}

// splitPairs returns a pair of vertices the prepared context separates in
// T\F and a pair of distinct vertices it does not; ok is false when the
// instance has no such pair of either kind.
func splitPairs(s *SketchScheme, ctx *SketchFaultContext) (sep, same [2]int32, ok bool) {
	var haveSep, haveSame bool
	n := int32(s.Graph().N())
	for v := int32(1); v < n && !(haveSep && haveSame); v++ {
		if ctx.trivial || ctx.ct.Locate(s.anc[0]) == ctx.ct.Locate(s.anc[v]) {
			same, haveSame = [2]int32{0, v}, true
		} else {
			sep, haveSep = [2]int32{0, v}, true
		}
	}
	return sep, same, haveSep && haveSame
}

// TestSketchFirstSeparatedDecodeAllocs gates the first decode of a pair
// the faults separate on fresh contexts: it runs Steps 2-3 and may keep
// only the component slice and the slab.
func TestSketchFirstSeparatedDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate: race instrumentation allocates")
	}
	checked := 0
	allocFaultSets(t, func(name string, s *SketchScheme, labels []SketchEdgeLabel) {
		ctx, err := s.PrepareFaults(labels, 0)
		if err != nil {
			t.Fatal(err)
		}
		sep, _, ok := splitPairs(s, ctx)
		if !ok {
			return
		}
		checked++
		allocs, fresh := freshPairDecodeAllocs(t, s, labels, s.VertexLabel(sep[0]), s.VertexLabel(sep[1]))
		if allocs > firstSeparatedAllocs {
			t.Errorf("%s: first separated decode allocates %.1f/op, want <= %d", name, allocs, firstSeparatedAllocs)
		}
		for i, ctx := range fresh {
			if n := ctx.builds.Load(); n != 1 {
				t.Fatalf("%s: context %d built its sketches %d times, want 1", name, i, n)
			}
		}
	})
	if checked < 10 {
		t.Fatalf("only %d fault sets separate a pair", checked)
	}
}

// TestSketchSameComponentDecodeZeroAlloc gates the first decode of a pair
// that shares a component of T\F on fresh contexts: it needs no sketch, so
// it allocates nothing and builds none.
func TestSketchSameComponentDecodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate: race instrumentation allocates")
	}
	allocFaultSets(t, func(name string, s *SketchScheme, labels []SketchEdgeLabel) {
		ctx, err := s.PrepareFaults(labels, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, same, _ := splitPairs(s, ctx)
		if same[1] == 0 {
			t.Fatalf("%s: no two vertices share a component of T\\F", name)
		}
		allocs, fresh := freshPairDecodeAllocs(t, s, labels, s.VertexLabel(same[0]), s.VertexLabel(same[1]))
		if allocs != 0 {
			t.Errorf("%s: same-component decode of a fresh context allocates %.1f/op, want 0", name, allocs)
		}
		for i, ctx := range fresh {
			if n := ctx.builds.Load(); n != 0 {
				t.Fatalf("%s: context %d built its sketches for a same-component pair", name, i)
			}
		}
	})
}

// BenchmarkSketchWarmDecode is the bench-compare form of the gate above:
// allocs/op must read 0 and ns/op guards the prepared decode itself.
func BenchmarkSketchWarmDecode(b *testing.B) {
	s, ctx := sketchAllocFixture(b)
	sv := s.VertexLabel(3)
	tv := s.VertexLabel(int32(118))
	// Untimed filling pass: sizes the pooled decode scratch.
	if _, err := ctx.Decode(sv, tv, false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Decode(sv, tv, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSketchWarmDecodePath(b *testing.B) {
	s, ctx := sketchAllocFixture(b)
	var path SuccinctPath
	sv := s.VertexLabel(3)
	tv := s.VertexLabel(int32(118))
	// Untimed filling pass: sizes the pooled decode scratch and the path.
	if _, err := ctx.DecodeInto(sv, tv, &path); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.DecodeInto(sv, tv, &path); err != nil {
			b.Fatal(err)
		}
	}
}
