package route

import (
	"reflect"
	"testing"

	"ftrouting/internal/graph"
)

// TestForbiddenContextMatchesRouteForbidden proves the prepared path
// (PrepareForbidden + Route) reproduces RouteForbidden bit-identically —
// costs, traces, header accounting and all.
func TestForbiddenContextMatchesRouteForbidden(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"random", graph.RandomConnected(40, 70, 1)},
		{"grid", graph.Grid(5, 6)},
		{"weighted", graph.WithRandomWeights(graph.RandomConnected(30, 50, 2), 6, 3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := Build(tc.g, 2, 2, Options{Seed: 13, Balanced: true})
			if err != nil {
				t.Fatal(err)
			}
			for nf := 0; nf <= 2; nf++ {
				ids := graph.RandomFaults(tc.g, nf, uint64(nf+6))
				ctx := r.PrepareForbidden(ids)
				n := int32(tc.g.N())
				for i := int32(0); i < 10; i++ {
					s, d := (i*3)%n, (i*7+n/2)%n
					want, err := r.RouteForbidden(s, d, ids)
					if err != nil {
						t.Fatal(err)
					}
					got, err := ctx.Route(s, d)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("|F|=%d pair (%d,%d): prepared %+v != direct %+v", nf, s, d, got, want)
					}
				}
			}
		})
	}
}
