package distlabel

import (
	"fmt"
	"reflect"
	"testing"

	"ftrouting/internal/graph"
	"ftrouting/internal/treecover"
)

// edgeLabelFullScan is the reference assembly of DistLabel(e): scan every
// cluster of every scale for e. EdgeLabel must equal it entry for entry.
func edgeLabelFullScan(s *Scheme, e graph.EdgeID) EdgeLabel {
	var l EdgeLabel
	for i, cover := range s.hier.Scales {
		for j, cl := range cover.Clusters {
			if cl == nil {
				continue // foreign shard's instance; cannot contain e
			}
			if le, ok := cl.Sub.EdgeToLocal[e]; ok {
				l.Entries = append(l.Entries, EEntry{Scale: i, Cluster: int32(j), L: s.inst[i][j].Conn.EdgeLabel(le)})
			}
		}
	}
	return l
}

func checkEdgeLabels(t *testing.T, s *Scheme) {
	t.Helper()
	for e := graph.EdgeID(0); int(e) < s.g.M(); e++ {
		if got, want := s.EdgeLabel(e), edgeLabelFullScan(s, e); !reflect.DeepEqual(got, want) {
			t.Fatalf("edge %d: membership walk gives %d entries %+v, full scan %d entries %+v",
				e, len(got.Entries), got.Entries, len(want.Entries), want.Entries)
		}
	}
}

func TestEdgeLabelMatchesFullScan(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"path":     graph.Path(12),
		"cycle":    graph.Cycle(11),
		"grid":     graph.Grid(4, 5),
		"star":     graph.Star(9),
		"random":   graph.RandomConnected(40, 70, 6),
		"weighted": graph.WithRandomWeights(graph.RandomConnected(30, 50, 7), 8, 9),
		"islands":  graph.Islands(2, 12, 18, 2),
	} {
		for _, k := range []int{1, 2} {
			s, err := Build(g, 2, k, Options{Seed: 23})
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			t.Run(fmt.Sprintf("%s/k%d", name, k), func(t *testing.T) { checkEdgeLabels(t, s) })
		}
	}
}

// TestEdgeLabelMatchesFullScanPartial runs the comparison on a partial
// scheme, as a shard of a two-island graph loads it: clusters of the
// other island are nil slots and its vertices have no home, so their
// edges get empty labels on both paths.
func TestEdgeLabelMatchesFullScanPartial(t *testing.T) {
	g := graph.Islands(2, 12, 18, 2) // vertices 0..11 and 12..23
	full, err := treecover.BuildHierarchy(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, own := range []func(v int32) bool{
		func(v int32) bool { return v < 12 },
		func(v int32) bool { return v >= 12 },
	} {
		part := &treecover.Hierarchy{G: g, K: full.K}
		nilSlots := 0
		for _, cover := range full.Scales {
			c := &treecover.Cover{Rho: cover.Rho, K: cover.K,
				Home: make([]int32, len(cover.Home)), Clusters: make([]*treecover.Cluster, len(cover.Clusters))}
			for v, h := range cover.Home {
				c.Home[v] = -1
				if own(int32(v)) {
					c.Home[v] = h
				}
			}
			for j, cl := range cover.Clusters {
				if own(cl.Sub.ToGlobal[0]) {
					c.Clusters[j] = cl
				} else {
					nilSlots++
				}
			}
			part.Scales = append(part.Scales, c)
		}
		if nilSlots == 0 {
			t.Fatal("partial hierarchy has no foreign slots")
		}
		s, err := BuildWithHierarchy(g, 2, 2, Options{Seed: 23}, part)
		if err != nil {
			t.Fatal(err)
		}
		checkEdgeLabels(t, s)
	}
}
