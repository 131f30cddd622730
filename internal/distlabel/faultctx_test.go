package distlabel

import (
	"slices"
	"testing"

	"ftrouting/internal/graph"
)

// TestFaultContextMatchesDecode proves the prepared two-phase path
// (PrepareFaults + Decode) returns the same estimates as the one-shot
// decoder for every pair and fault count.
func TestFaultContextMatchesDecode(t *testing.T) {
	g := graph.WithRandomWeights(graph.RandomConnected(30, 48, 2), 5, 7)
	s, err := Build(g, 2, 2, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for nf := 0; nf <= 2; nf++ {
		ids := graph.RandomFaults(g, nf, uint64(nf+4))
		fl := make([]EdgeLabel, len(ids))
		for i, id := range ids {
			fl[i] = s.EdgeLabel(id)
		}
		ctx := prepareIDs(s, ids)
		for sv := int32(0); sv < 15; sv++ {
			for _, tv := range []int32{sv, 20, 29} {
				want, err := s.Decode(s.VertexLabel(sv), s.VertexLabel(tv), fl)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ctx.Decode(s.VertexLabel(sv), s.VertexLabel(tv))
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("|F|=%d pair (%d,%d): prepared %d, direct %d", nf, sv, tv, got, want)
				}
			}
		}
	}
}

// TestFaultContextForeignEntries checks the direct decoder ignores entries
// addressing no instance of the scheme (corrupted or foreign labels): the
// home-instance walk can never select them, so the label still counts as
// a queried fault but cuts nothing. Prepared contexts take edge ids, which
// cannot carry such entries; the direct decode must equal a context on the
// real fault alone with the foreign label counted in |F|.
func TestFaultContextForeignEntries(t *testing.T) {
	g := graph.RandomConnected(16, 24, 3)
	s, err := Build(g, 1, 2, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// A real, scheme-bound connectivity label under coordinates that
	// address no instance: the home-instance walk can never select it.
	foreign := EdgeLabel{Entries: []EEntry{{Scale: 99, Cluster: 7, L: s.EdgeLabel(1).Entries[0].L}}}
	fl := []EdgeLabel{s.EdgeLabel(0), foreign}
	ctx := s.PrepareFaults([]graph.EdgeID{0}, 2)
	for tv := int32(1); tv < int32(g.N()); tv++ {
		want, err := s.Decode(s.VertexLabel(0), s.VertexLabel(tv), fl)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ctx.Decode(s.VertexLabel(0), s.VertexLabel(tv))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("t=%d: direct decode with a foreign entry %d, prepared on the real fault %d", tv, want, got)
		}
	}
}

// TestDistinctFaultsMatchesLabelCount is the differential check of the
// id-based |F| rule: DistinctFaults of a fault list equals countDistinct of
// the list's labels, the count Decode uses. It covers unweighted and
// weighted graphs, duplicate ids, and heavy edges that lie in no instance
// (each listing of one counts separately).
func TestDistinctFaultsMatchesLabelCount(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"random", graph.RandomConnected(40, 70, 1)},
		{"grid", graph.Grid(5, 6)},
		{"weighted", graph.WithRandomWeights(graph.RandomConnected(30, 50, 2), 6, 3)},
		{"cliques", graph.WithRandomWeights(graph.RingOfCliques(4, 5), 9, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			n := int32(g.N())
			heavy := []graph.EdgeID{g.MustAddEdge(0, n-1, 1<<40), g.MustAddEdge(1, n/2, 1<<40)}
			s, err := Build(g, 4, 2, Options{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range heavy {
				if len(s.EdgeLabel(h).Entries) != 0 {
					t.Fatalf("heavy edge %d lies in an instance", h)
				}
			}
			check := func(ids []graph.EdgeID) {
				t.Helper()
				if got, want := DistinctFaults(g, ids, s.Scales()), countDistinct(edgeLabels(s, ids)); got != want {
					t.Fatalf("faults %v: DistinctFaults %d, label count %d", ids, got, want)
				}
			}
			check(nil)
			check([]graph.EdgeID{heavy[0], heavy[0], heavy[1]})
			for seed := uint64(1); seed <= 12; seed++ {
				ids := graph.RandomFaults(g, 4, seed)
				check(ids)
				check(append(slices.Clone(ids), ids[0], ids[2], ids[0]))
				check(append(slices.Clone(ids), heavy[seed%2], ids[1], heavy[seed%2]))
			}
		})
	}
}
