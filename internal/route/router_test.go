package route

import (
	"testing"

	"ftrouting/internal/ancestry"
	"ftrouting/internal/graph"
)

func TestInstanceAccessor(t *testing.T) {
	g := graph.Path(10)
	r := buildRouter(t, g, 1, 2, Options{Seed: 3})
	inst := r.Instance(0, 0)
	if inst == nil || inst.Scale != 0 || inst.Index != 0 {
		t.Fatalf("instance accessor broken: %+v", inst)
	}
	if inst.Cluster == nil || inst.Conn == nil || inst.TR == nil {
		t.Fatal("instance incomplete")
	}
}

// TestAncestryAgreement pins the determinism assumption buildInstance
// relies on: building ancestry labels twice for the same tree yields
// identical labels, so the tree-routing scheme and the connectivity scheme
// agree on DFS intervals.
func TestAncestryAgreement(t *testing.T) {
	g := graph.RandomConnected(60, 90, 7)
	r := buildRouter(t, g, 1, 2, Options{Seed: 5})
	for i := 0; i < r.Scales(); i++ {
		for j, inst := range r.inst[i] {
			anc := ancestry.Build(inst.Cluster.Tree)
			for v := int32(0); v < int32(inst.Cluster.Sub.Local.N()); v++ {
				if inst.Conn.Anc(v) != anc[v] {
					t.Fatalf("instance (%d,%d): ancestry labels diverge at %d", i, j, v)
				}
				if inst.TR.Label(v).Anc != anc[v] {
					t.Fatalf("instance (%d,%d): tree-routing anc diverges at %d", i, j, v)
				}
			}
		}
	}
}

func TestRoutingEdgeLabelBits(t *testing.T) {
	g := graph.Path(10)
	r := buildRouter(t, g, 2, 2, Options{Seed: 7})
	inst := r.Instance(0, 0)
	nonTree := routingEdgeLabelBits(inst, false, 3)
	tree := routingEdgeLabelBits(inst, true, 3)
	if nonTree != inst.Conn.Layout().Bits() {
		t.Fatalf("non-tree routing label must be one EID: %d", nonTree)
	}
	if tree <= 3*nonTree {
		t.Fatalf("tree routing label must carry copies of sketches: %d vs %d", tree, nonTree)
	}
	// Eq. 7: f' copies scale the tree label linearly.
	if routingEdgeLabelBits(inst, true, 6) != 2*tree {
		t.Fatal("copies must scale tree labels linearly")
	}
}

// TestLabelBitsSmall: routing labels (Eq. 8) are per-scale conn vertex
// labels — orders below table sizes.
func TestLabelBitsSmall(t *testing.T) {
	g := graph.RandomConnected(50, 75, 9)
	r := buildRouter(t, g, 2, 2, Options{Seed: 11})
	for v := int32(0); v < 50; v += 7 {
		lb := r.LabelBits(v)
		if lb <= 0 {
			t.Fatal("label bits")
		}
		if lb >= r.TableBits(v) {
			t.Fatalf("label (%d bits) should be far smaller than table (%d bits)", lb, r.TableBits(v))
		}
	}
}

// TestStoresEdgeLabelPlacement checks both placements on a star instance.
func TestStoresEdgeLabelPlacement(t *testing.T) {
	g := graph.Star(20)
	naive := buildRouter(t, g, 2, 2, Options{Seed: 13})
	bal := buildRouter(t, g, 2, 2, Options{Seed: 13, Balanced: true})
	// Find the scale where the whole star is one cluster.
	for i := 0; i < naive.Scales(); i++ {
		instN := naive.inst[i][naive.hier.Home(i, 0)]
		if instN.Cluster.Sub.Local.N() != 20 {
			continue
		}
		instB := bal.inst[i][bal.hier.Home(i, 0)]
		hubN, _ := instN.Cluster.Sub.LocalVertex(0)
		hubB, _ := instB.Cluster.Sub.LocalVertex(0)
		storedN, storedB := 0, 0
		for le := graph.EdgeID(0); int(le) < instN.Cluster.Sub.Local.M(); le++ {
			if instN.Cluster.Tree.InTree[le] && naive.storesEdgeLabel(instN, hubN, le) {
				storedN++
			}
			if instB.Cluster.Tree.InTree[le] && bal.storesEdgeLabel(instB, hubB, le) {
				storedB++
			}
		}
		if storedN < 19 {
			t.Fatalf("naive hub must store all incident tree edges, stores %d", storedN)
		}
		if storedB >= storedN {
			t.Fatalf("balanced hub must store fewer labels: %d vs %d", storedB, storedN)
		}
		return
	}
	t.Fatal("no whole-graph cluster found")
}

// TestRouteFTManyFaultsOnTreePath: all faults placed consecutively on one
// tree path forces repeated discover-reverse-retry iterations.
func TestRouteFTManyFaultsOnTreePath(t *testing.T) {
	g := graph.Torus(5, 5)
	r := buildRouter(t, g, 3, 2, Options{Seed: 17, Balanced: true})
	// Fail three edges incident to the midpoint region.
	e1, _ := g.FindEdge(11, 12)
	e2, _ := g.FindEdge(12, 13)
	e3, _ := g.FindEdge(7, 12)
	faults := graph.NewEdgeSet(e1, e2, e3)
	res, err := r.RouteFT(10, 14, faults)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Fatal("torus stays connected under 3 faults")
	}
	if res.Cost > r.StretchBoundFT(3)*res.Opt {
		t.Fatal("stretch bound violated")
	}
}
