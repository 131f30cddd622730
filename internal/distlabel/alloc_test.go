package distlabel

import (
	"testing"

	"ftrouting/internal/graph"
)

// The distance-estimate allocation gate: after PrepareFaults, a warm
// estimate — cached vertex labels plus FaultContext.Decode — must not
// touch the heap. This is the eval stage under every /estimate request.

func distAllocFixture(t testing.TB) (*Scheme, *FaultContext) {
	t.Helper()
	g := graph.WithRandomWeights(graph.RandomConnected(64, 110, 19), 7, 23)
	s, err := Build(g, 2, 2, Options{Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	return s, prepareIDs(s, graph.RandomFaults(g, 2, 5))
}

func TestFaultContextEstimateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate: race instrumentation allocates")
	}
	s, ctx := distAllocFixture(t)
	n := int32(64)
	allocs := testing.AllocsPerRun(100, func() {
		for i := int32(0); i < 8; i++ {
			sv, tv := (i*5)%n, (i*11+32)%n
			if _, err := ctx.Decode(s.CachedVertexLabel(sv), s.CachedVertexLabel(tv)); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("warm estimate allocates %.1f per 8 pairs, want 0", allocs)
	}
}

func BenchmarkDistEstimateWarmDecode(b *testing.B) {
	s, ctx := distAllocFixture(b)
	sl, tl := s.CachedVertexLabel(3), s.CachedVertexLabel(60)
	// Untimed filling pass: prepares the instances the walk reaches, so a
	// single timed iteration measures the warm decode.
	if _, err := ctx.Decode(sl, tl); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Decode(sl, tl); err != nil {
			b.Fatal(err)
		}
	}
}
