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

// TestFaultContextPreparesOnlyReachedInstances checks the laziness itself:
// PrepareFaults prepares no instance, and after one decode exactly the
// fault-holding instances the scale walk visited are prepared. On this
// fixture that is strictly fewer than the instances F touches.
func TestFaultContextPreparesOnlyReachedInstances(t *testing.T) {
	s, g := lazyFixture(t)
	skipped := 0
	for seed := uint64(1); seed <= 6; seed++ {
		fl := edgeLabels(s, graph.RandomFaults(g, 2, seed))
		faulty := faultInstances(fl)
		for _, p := range [][2]int32{{0, 1}, {3, 90}, {17, 60}, {5, 119}} {
			ctx := s.PrepareFaults(fl)
			for k := range faulty {
				if ctx.conn.IsPrepared(k) {
					t.Fatalf("seed %d: PrepareFaults prepared instance %+v", seed, k)
				}
			}
			sl, tl := s.CachedVertexLabel(p[0]), s.CachedVertexLabel(p[1])
			est, err := ctx.Decode(sl, tl)
			if err != nil {
				t.Fatal(err)
			}
			reached := reachedInstances(s, ctx.nf, sl, tl, est)
			for k := range faulty {
				if got := ctx.conn.IsPrepared(k); got != reached[k] {
					t.Fatalf("seed %d pair %v: instance %+v prepared=%v, reached by the walk=%v", seed, p, k, got, reached[k])
				}
				if !reached[k] {
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
	fl := edgeLabels(s, graph.RandomFaults(g, 2, 9))
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
	ctx := s.PrepareFaults(fl)
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

// TestFaultContextCorruptedTreeFault corrupts every tree entry of one
// fault label (non-nested endpoint intervals). PrepareFaults no longer
// touches the entries, so it succeeds; the first decode that reaches a
// corrupted instance returns the wrapped preparation error (the same one
// the direct decoder reports), never a panic, and decodes whose walk
// avoids those instances still answer.
func TestFaultContextCorruptedTreeFault(t *testing.T) {
	s, g := lazyFixture(t)
	fl := edgeLabels(s, graph.RandomFaults(g, 2, 3))
	bad := fl[0].Entries
	fl[0].Entries = make([]EEntry, len(bad))
	copy(fl[0].Entries, bad)
	corrupted := 0
	for i := range fl[0].Entries {
		e := &fl[0].Entries[i]
		if !e.L.IsTree {
			continue
		}
		e.L.EID = append([]uint64(nil), e.L.EID...)
		e.L.EID[3] = e.L.EID[2] // AncV := AncU: neither is a proper ancestor
		corrupted++
	}
	if corrupted == 0 {
		t.Fatal("fixture fault is a tree edge of no instance")
	}
	ctx := s.PrepareFaults(fl)
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
					!strings.HasSuffix(gerr.Error(), werr.Error()) {
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
	one := s.PrepareFaults(edgeLabels(s, graph.RandomFaults(g, 1, 21)))
	two := s.PrepareFaults(edgeLabels(s, graph.RandomFaults(g, 2, 22)))
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
