package core

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"ftrouting/internal/graph"
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
