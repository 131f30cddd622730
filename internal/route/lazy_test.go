package route

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ftrouting/internal/core"
	"ftrouting/internal/graph"
)

func lazyRouterFixture(t testing.TB) (*Router, *graph.Graph) {
	t.Helper()
	g := graph.RandomConnected(90, 160, 4)
	r, err := Build(g, 2, 2, Options{Seed: 19, Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	return r, g
}

// faultInstances returns the instances containing an edge of ids.
func faultInstances(r *Router, ids []graph.EdgeID) map[core.InstanceKey]bool {
	faulty := make(map[core.InstanceKey]bool)
	for i := range r.inst {
		for j, inst := range r.inst[i] {
			if len(instanceFaultLabels(inst, ids)) > 0 {
				faulty[core.InstanceKey{Scale: i, Cluster: int32(j)}] = true
			}
		}
	}
	return faulty
}

// reachedInstances replays the scale walk of a route that decoded phases
// instances: the home instances of s containing t, in scale order, cut at
// phases.
func reachedInstances(r *Router, s, t int32, phases int) map[core.InstanceKey]bool {
	reached := make(map[core.InstanceKey]bool)
	for i := range r.inst {
		if len(reached) == phases {
			break
		}
		j := r.hier.Home(i, s)
		if r.inst[i][j].Cluster.Sub.Contains(t) {
			reached[core.InstanceKey{Scale: i, Cluster: j}] = true
		}
	}
	return reached
}

// TestForbiddenContextPreparesOnlyReachedInstances checks the laziness:
// PrepareForbidden prepares no instance, and after one route exactly the
// fault-holding instances the scale walk decoded are prepared. On this
// fixture that is strictly fewer than the instances F touches.
func TestForbiddenContextPreparesOnlyReachedInstances(t *testing.T) {
	r, g := lazyRouterFixture(t)
	skipped := 0
	for seed := uint64(1); seed <= 6; seed++ {
		ids := graph.RandomFaults(g, 2, seed)
		faulty := faultInstances(r, ids)
		for _, p := range [][2]int32{{0, 1}, {3, 70}, {17, 45}, {5, 89}} {
			ctx := r.PrepareForbidden(ids)
			for k := range faulty {
				if ctx.conn.IsPrepared(k) {
					t.Fatalf("seed %d: PrepareForbidden prepared instance %+v", seed, k)
				}
			}
			res, err := ctx.Route(p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			reached := reachedInstances(r, p[0], p[1], res.Phases)
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
		t.Fatal("every route reached every fault-holding instance; the fixture does not exercise laziness")
	}
}

// TestForbiddenContextConcurrentFirstUse routes on a fresh context from 8
// goroutines at once, so first uses of an instance race each other; every
// result must equal the direct RouteForbidden.
func TestForbiddenContextConcurrentFirstUse(t *testing.T) {
	r, g := lazyRouterFixture(t)
	ids := graph.RandomFaults(g, 2, 9)
	n := int32(g.N())
	pairs := make([][2]int32, 32)
	want := make([]Result, len(pairs))
	for i := range pairs {
		pairs[i] = [2]int32{int32(i*7) % n, int32(i*13+40) % n}
		res, err := r.RouteForbidden(pairs[i][0], pairs[i][1], ids)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	ctx := r.PrepareForbidden(ids)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range pairs {
				i := (k + w*4) % len(pairs)
				got, err := ctx.Route(pairs[i][0], pairs[i][1])
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					errs <- errors.New("prepared route differs from direct RouteForbidden")
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

// TestForbiddenContextCorruptedTreeFault restricts a fault set whose tree
// labels are corrupted (non-nested endpoint intervals) by hand: building
// the restriction succeeds, the first route that reaches a corrupted
// instance returns the wrapped preparation error, never a panic, and
// routes whose walk avoids those instances still succeed.
func TestForbiddenContextCorruptedTreeFault(t *testing.T) {
	r, g := lazyRouterFixture(t)
	ids := graph.RandomFaults(g, 2, 3)
	ctx := &ForbiddenContext{r: r, faultIDs: ids, faults: graph.NewEdgeSet(ids...), conn: core.NewInstanceFaults()}
	corrupted := 0
	for i := range r.inst {
		for j, inst := range r.inst[i] {
			for _, l := range instanceFaultLabels(inst, ids) {
				if l.IsTree {
					l.EID = append([]uint64(nil), l.EID...)
					l.EID[3] = l.EID[2] // AncV := AncU: neither is a proper ancestor
					corrupted++
				}
				ctx.conn.Add(core.InstanceKey{Scale: i, Cluster: int32(j)}, inst.Conn, l)
			}
		}
	}
	if corrupted == 0 {
		t.Fatal("fixture faults are tree edges of no instance")
	}
	failed, routed := 0, 0
	for s := int32(0); s < int32(g.N()); s += 3 {
		for _, d := range []int32{(s + 1) % 90, (s + 45) % 90} {
			_, err := ctx.Route(s, d)
			if err != nil {
				if !strings.HasPrefix(err.Error(), "route: instance (") || errors.Unwrap(err) == nil ||
					!strings.Contains(err.Error(), "non-nested endpoint intervals") {
					t.Fatalf("pair (%d,%d): unexpected error %q", s, d, err)
				}
				failed++
				continue
			}
			routed++
		}
	}
	if failed == 0 || routed == 0 {
		t.Fatalf("%d routes failed and %d succeeded; want both", failed, routed)
	}
}

// TestForbiddenContextAlternatingZeroAlloc alternates two warm contexts
// whose instances have different component counts; the one decode scratch
// pool must serve both without reallocating.
func TestForbiddenContextAlternatingZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate: race instrumentation allocates")
	}
	r, g := lazyRouterFixture(t)
	one := r.PrepareForbidden(graph.RandomFaults(g, 1, 21))
	two := r.PrepareForbidden(graph.RandomFaults(g, 2, 22))
	var res Result
	n := int32(g.N())
	run := func() {
		for i := int32(0); i < 16; i++ {
			s, d := (i*5)%n, (i*11+45)%n
			for _, ctx := range []*ForbiddenContext{one, two} {
				if err := ctx.RouteInto(s, d, &res); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	run() // filling pass: prepares the reached instances
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("alternating warm contexts allocate %.1f per 32 routes, want 0", allocs)
	}
}
