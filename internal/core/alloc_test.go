package core

import (
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
