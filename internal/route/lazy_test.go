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
			if len(core.RestrictFaults(inst.Cluster.Sub, inst.Conn, ids)) > 0 {
				faulty[core.InstanceKey{Scale: i, Cluster: int32(j)}] = true
			}
		}
	}
	return faulty
}

// allInstances returns the key of every built instance of r.
func allInstances(r *Router) []core.InstanceKey {
	var keys []core.InstanceKey
	for i := range r.inst {
		for j, inst := range r.inst[i] {
			if inst != nil {
				keys = append(keys, core.InstanceKey{Scale: i, Cluster: int32(j)})
			}
		}
	}
	return keys
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
// PrepareForbidden creates no instance entry, and after one route exactly
// the instances the scale walk decoded have one. On this fixture the walk
// skips some of the instances F touches.
func TestForbiddenContextPreparesOnlyReachedInstances(t *testing.T) {
	r, g := lazyRouterFixture(t)
	all := allInstances(r)
	skipped := 0
	for seed := uint64(1); seed <= 6; seed++ {
		ids := graph.RandomFaults(g, 2, seed)
		faulty := faultInstances(r, ids)
		for _, p := range [][2]int32{{0, 1}, {3, 70}, {17, 45}, {5, 89}} {
			ctx := r.PrepareForbidden(ids)
			for _, k := range all {
				if ctx.conn.Reached(k) {
					t.Fatalf("seed %d: PrepareForbidden created an entry for instance %+v", seed, k)
				}
			}
			res, err := ctx.Route(p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			reached := reachedInstances(r, p[0], p[1], res.Phases)
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

// markCrossFaultsTree corrupts the connectivity scheme of inst: every
// fault edge of ids that lies in it off the tree, with neither endpoint an
// ancestor of the other, is marked a tree edge, so its edge label carries
// non-nested endpoint intervals. It returns the number of edges marked.
func markCrossFaultsTree(inst *Instance, ids []graph.EdgeID) int {
	marked := 0
	tree := inst.Conn.Tree()
	for _, id := range ids {
		le, ok := inst.Cluster.Sub.LocalEdge(id)
		if !ok || tree.InTree[le] {
			continue
		}
		e := inst.Cluster.Sub.Local.Edge(le)
		au, av := inst.Conn.Anc(e.U), inst.Conn.Anc(e.V)
		if au.IsAncestorOf(av) || av.IsAncestorOf(au) {
			continue
		}
		tree.InTree[le] = true
		marked++
	}
	return marked
}

// TestForbiddenContextCorruptedTreeFault corrupts the instances where a
// forbidden edge is a cross edge of the instance tree by marking it a
// tree edge (non-nested endpoint intervals): PrepareForbidden succeeds,
// the first route that reaches a corrupted instance returns the wrapped
// preparation error, never a panic, and routes whose walk avoids those
// instances still succeed.
func TestForbiddenContextCorruptedTreeFault(t *testing.T) {
	r, g := lazyRouterFixture(t)
	ids := graph.RandomFaults(g, 2, 3)
	corrupted := 0
	for i := range r.inst {
		for _, inst := range r.inst[i] {
			corrupted += markCrossFaultsTree(inst, ids)
		}
	}
	if corrupted == 0 {
		t.Fatal("fixture faults are cross edges of no instance tree")
	}
	ctx := r.PrepareForbidden(ids)
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
