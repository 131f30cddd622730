package distlabel

import (
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
		ctx := s.PrepareFaults(fl)
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

// TestFaultContextForeignEntries checks entries addressing no instance of
// the scheme (corrupted or foreign labels) are tolerated identically by
// both paths: they can never be selected by the home-instance walk.
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
	ctx := s.PrepareFaults(fl)
	want, err := s.Decode(s.VertexLabel(0), s.VertexLabel(15), fl)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ctx.Decode(s.VertexLabel(0), s.VertexLabel(15))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("prepared %d, direct %d", got, want)
	}
}
