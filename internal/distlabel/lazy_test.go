package distlabel

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"ftrouting/internal/core"
	"ftrouting/internal/graph"
)

func lazyFixture(t testing.TB) (*Scheme, *graph.Graph) {
	t.Helper()
	g := graph.RandomConnected(120, 220, 4)
	s, err := Build(g, 2, 2, Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	return s, g
}

// prepareIDs prepares the whole fault set ids, counted as Decode counts
// their labels.
func prepareIDs(s *Scheme, ids []graph.EdgeID) *FaultContext {
	return s.PrepareFaults(ids, DistinctFaults(s.g, ids, s.Scales()))
}

func edgeLabels(s *Scheme, ids []graph.EdgeID) []EdgeLabel {
	fl := make([]EdgeLabel, len(ids))
	for i, id := range ids {
		fl[i] = s.EdgeLabel(id)
	}
	return fl
}

// faultInstances returns the instances holding an entry of fl.
func faultInstances(fl []EdgeLabel) map[core.InstanceKey]bool {
	faulty := make(map[core.InstanceKey]bool)
	for _, f := range fl {
		for _, e := range f.Entries {
			faulty[core.InstanceKey{Scale: e.Scale, Cluster: e.Cluster}] = true
		}
	}
	return faulty
}

// reachedInstances replays the scale walk of one decode that returned est:
// the home instances of s that contain t, up to the scale est reports (all
// scales when unreachable).
func reachedInstances(s *Scheme, nf int, sl, tl VertexLabel, est int64) map[core.InstanceKey]bool {
	reached := make(map[core.InstanceKey]bool)
	for i := range s.inst {
		j := sl.Home[i]
		if j < 0 {
			continue
		}
		if _, ok := tl.find(i, j); !ok {
			continue
		}
		reached[core.InstanceKey{Scale: i, Cluster: j}] = true
		if est == int64(4*s.k-1)*int64(nf+1)*(int64(1)<<uint(i)) {
			break
		}
	}
	return reached
}

// allInstances returns the key of every built instance of s.
func allInstances(s *Scheme) []core.InstanceKey {
	var keys []core.InstanceKey
	for i := range s.inst {
		for j, inst := range s.inst[i] {
			if inst != nil {
				keys = append(keys, core.InstanceKey{Scale: i, Cluster: int32(j)})
			}
		}
	}
	return keys
}

// TestFaultContextPreparesOnlyReachedInstances checks the laziness itself:
// PrepareFaults creates no instance entry, and after one decode exactly
// the instances the scale walk visited have one. On this fixture the walk
// skips some of the instances F touches.
func TestFaultContextPreparesOnlyReachedInstances(t *testing.T) {
	s, g := lazyFixture(t)
	all := allInstances(s)
	skipped := 0
	for seed := uint64(1); seed <= 6; seed++ {
		ids := graph.RandomFaults(g, 2, seed)
		faulty := faultInstances(edgeLabels(s, ids))
		for _, p := range [][2]int32{{0, 1}, {3, 90}, {17, 60}, {5, 119}} {
			ctx := prepareIDs(s, ids)
			for _, k := range all {
				if ctx.conn.Reached(k) {
					t.Fatalf("seed %d: PrepareFaults created an entry for instance %+v", seed, k)
				}
			}
			sl, tl := s.CachedVertexLabel(p[0]), s.CachedVertexLabel(p[1])
			est, err := ctx.Decode(sl, tl)
			if err != nil {
				t.Fatal(err)
			}
			reached := reachedInstances(s, ctx.nf, sl, tl, est)
			for _, k := range all {
				if got := ctx.conn.Reached(k); got != reached[k] {
					t.Fatalf("seed %d pair %v: instance %+v has an entry=%v, reached by the walk=%v", seed, p, k, got, reached[k])
				}
				if faulty[k] && !reached[k] {
					skipped++
				}
			}
		}
	}
	if skipped == 0 {
		t.Fatal("every decode reached every fault-holding instance; the fixture does not exercise laziness")
	}
}

// TestFaultContextConcurrentFirstUse decodes a fresh context from 8
// goroutines at once, so first uses of an instance race each other; every
// answer must match the direct decoder.
func TestFaultContextConcurrentFirstUse(t *testing.T) {
	s, g := lazyFixture(t)
	ids := graph.RandomFaults(g, 2, 9)
	fl := edgeLabels(s, ids)
	n := int32(g.N())
	pairs := make([][2]int32, 48)
	want := make([]int64, len(pairs))
	for i := range pairs {
		pairs[i] = [2]int32{int32(i*7) % n, int32(i*13+40) % n}
		v, err := s.Decode(s.VertexLabel(pairs[i][0]), s.VertexLabel(pairs[i][1]), fl)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	ctx := prepareIDs(s, ids)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range pairs {
				i := (k + w*6) % len(pairs)
				got, err := ctx.Decode(s.CachedVertexLabel(pairs[i][0]), s.CachedVertexLabel(pairs[i][1]))
				if err != nil {
					errs <- err
					return
				}
				if got != want[i] {
					errs <- errors.New("prepared estimate differs from direct decode")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// markCrossFaultsTree corrupts the connectivity scheme of the instance
// whose local graph is sub: every fault edge of ids that lies in it off
// the tree, with neither endpoint an ancestor of the other, is marked a
// tree edge, so its edge label carries non-nested endpoint intervals. It
// returns the number of edges marked.
func markCrossFaultsTree(sub *graph.Subgraph, conn *core.SketchScheme, ids []graph.EdgeID) int {
	marked := 0
	tree := conn.Tree()
	for _, id := range ids {
		le, ok := sub.LocalEdge(id)
		if !ok || tree.InTree[le] {
			continue
		}
		e := sub.Local.Edge(le)
		au, av := conn.Anc(e.U), conn.Anc(e.V)
		if au.IsAncestorOf(av) || av.IsAncestorOf(au) {
			continue
		}
		tree.InTree[le] = true
		marked++
	}
	return marked
}

// TestFaultContextCorruptedTreeFault corrupts the instances where a fault
// edge is a cross edge of the instance tree by marking it a tree edge
// (non-nested endpoint intervals). PrepareFaults touches no instance, so
// it succeeds; the first decode that reaches a corrupted instance returns
// the wrapped preparation error (the same one the direct decoder
// reports), never a panic, and decodes whose walk avoids those instances
// still answer.
func TestFaultContextCorruptedTreeFault(t *testing.T) {
	s, g := lazyFixture(t)
	ids := graph.RandomFaults(g, 2, 3)
	corrupted := 0
	for i := range s.inst {
		for _, inst := range s.inst[i] {
			corrupted += markCrossFaultsTree(inst.Cluster.Sub, inst.Conn, ids)
		}
	}
	if corrupted == 0 {
		t.Fatal("fixture faults are cross edges of no instance tree")
	}
	fl := edgeLabels(s, ids)
	ctx := prepareIDs(s, ids)
	failed, answered := 0, 0
	for sv := int32(0); sv < int32(g.N()); sv += 3 {
		for _, tv := range []int32{(sv + 1) % 120, (sv + 61) % 120} {
			want, werr := s.Decode(s.VertexLabel(sv), s.VertexLabel(tv), fl)
			got, gerr := ctx.Decode(s.CachedVertexLabel(sv), s.CachedVertexLabel(tv))
			if (werr != nil) != (gerr != nil) {
				t.Fatalf("pair (%d,%d): direct error %v, prepared error %v", sv, tv, werr, gerr)
			}
			if gerr != nil {
				if !strings.HasPrefix(gerr.Error(), "distlabel: instance (") || errors.Unwrap(gerr) == nil ||
					!strings.HasSuffix(gerr.Error(), werr.Error()) ||
					!strings.Contains(gerr.Error(), "non-nested endpoint intervals") {
					t.Fatalf("pair (%d,%d): error %q does not wrap %q", sv, tv, gerr, werr)
				}
				failed++
				continue
			}
			if got != want {
				t.Fatalf("pair (%d,%d): prepared %d, direct %d", sv, tv, got, want)
			}
			answered++
		}
	}
	if failed == 0 || answered == 0 {
		t.Fatalf("%d decodes failed and %d answered; want both", failed, answered)
	}
}

// TestFaultContextAlternatingZeroAlloc alternates two warm contexts whose
// instances have different component counts; the one decode scratch pool
// must serve both without reallocating.
func TestFaultContextAlternatingZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate: race instrumentation allocates")
	}
	s, g := lazyFixture(t)
	one := prepareIDs(s, graph.RandomFaults(g, 1, 21))
	two := prepareIDs(s, graph.RandomFaults(g, 2, 22))
	n := int32(g.N())
	run := func() {
		for i := int32(0); i < 16; i++ {
			sl, tl := s.CachedVertexLabel((i*5)%n), s.CachedVertexLabel((i*11+60)%n)
			for _, ctx := range []*FaultContext{one, two} {
				if _, err := ctx.Decode(sl, tl); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	run() // filling pass: prepares the reached instances
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("alternating warm contexts allocate %.1f per 32 decodes, want 0", allocs)
	}
}
