package route

import (
	"testing"

	"ftrouting/internal/graph"
)

// The forbidden-set routing allocation gate: after PrepareForbidden, a
// warm RouteInto — optimal-distance Dijkstra, per-scale sketch decode,
// path walk and trace assembly — must run entirely on pooled scratch and
// the caller's reused Result.

func routeAllocFixture(t testing.TB) (*Router, *ForbiddenContext, graph.EdgeSet) {
	t.Helper()
	g := graph.WithRandomWeights(graph.RandomConnected(64, 110, 7), 5, 37)
	r, err := Build(g, 2, 2, Options{Seed: 29, Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	ids := graph.RandomFaults(g, 2, 11)
	ctx := r.PrepareForbidden(ids)
	return r, ctx, graph.NewEdgeSet(ids...)
}

func TestForbiddenContextRouteZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate: race instrumentation allocates")
	}
	_, ctx, _ := routeAllocFixture(t)
	var res Result
	n := int32(64)
	allocs := testing.AllocsPerRun(100, func() {
		for i := int32(0); i < 8; i++ {
			s, d := (i*9)%n, (i*5+31)%n
			if err := ctx.RouteInto(s, d, &res); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("warm ForbiddenContext.RouteInto allocates %.1f per 8 routes, want 0", allocs)
	}
}

func BenchmarkRoutingForbiddenWarm(b *testing.B) {
	_, ctx, _ := routeAllocFixture(b)
	var res Result
	route := func(i int) {
		if err := ctx.RouteInto(int32(i*7%64), int32((i*3+31)%64), &res); err != nil {
			b.Fatal(err)
		}
	}
	// Untimed filling pass over the whole pair cycle: prepares the
	// instances the walks reach, so a single timed iteration measures the
	// warm route.
	for i := 0; i < 64; i++ {
		route(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		route(i)
	}
}
