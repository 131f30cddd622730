package graph

import (
	"sort"
	"testing"

	"ftrouting/internal/xrand"
)

// checkSPClean fails unless every dist entry of both searches is Inf: the
// between-calls invariant that lets Distance reset only what it touched.
func checkSPClean(t *testing.T, sc *SPScratch, ctx string) {
	t.Helper()
	for side, x := range []*spSearch{&sc.fwd, &sc.bwd} {
		for v, d := range x.dist {
			if d != Inf {
				t.Fatalf("%s: side %d left dist[%d] = %d", ctx, side, v, d)
			}
		}
	}
}

// spMatrix is slabMatrix plus a weighted copy of each graph, in an order
// whose vertex counts rise and fall, so one scratch meets graphs both
// larger and smaller than the last.
func spMatrix() ([]string, map[string]*Graph) {
	gs := slabMatrix()
	for name, g := range slabMatrix() {
		gs[name+"/w"] = WithRandomWeights(g, 12, uint64(len(name)))
	}
	names := make([]string, 0, len(gs))
	for name := range gs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, gs
}

// TestSPScratchMatchesDistance checks the bidirectional search against the
// reference oracle over the generator matrix, weighted and unit: random
// pairs and fault sets, s == t, and fault sets that cut every edge at t
// (so s and t are disconnected). One scratch serves every graph.
func TestSPScratchMatchesDistance(t *testing.T) {
	names, gs := spMatrix()
	var sc SPScratch
	rng := xrand.NewSplitMix64(41)
	for round := 0; round < 2; round++ {
		for _, name := range names {
			g := gs[name]
			n := g.N()
			for q := 0; q < 40; q++ {
				s, tv := int32(rng.Intn(n)), int32(rng.Intn(n))
				if q%10 == 0 {
					tv = s
				}
				var faults EdgeSet
				switch q % 4 {
				case 1:
					faults = NewEdgeSet(RandomFaults(g, 1+rng.Intn(4), rng.Next())...)
				case 2:
					faults = NewEdgeSet()
					for _, a := range g.Adj(tv) {
						faults[a.E] = true
					}
				case 3:
					faults = NewEdgeSet(RandomFaults(g, g.M()/3, rng.Next())...)
				}
				skip := SkipSet(faults)
				want := Distance(g, s, tv, skip)
				if got := sc.Distance(g, s, tv, skip); got != want {
					t.Fatalf("%s: Distance(%d,%d) with %d faults = %d, want %d", name, s, tv, len(faults), got, want)
				}
				if q%4 == 2 && s != tv && want != Inf {
					t.Fatalf("%s: cutting every edge at %d left it reachable", name, tv)
				}
				checkSPClean(t, &sc, name)
			}
		}
	}
}

// FuzzSPDistance decodes a small weighted graph, a pair and a fault set
// from the input and checks SPScratch.Distance against Distance. The
// scratch outlives each input, so state one input left behind would show
// on the next.
func FuzzSPDistance(f *testing.F) {
	f.Add([]byte{5, 0, 4, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 1, 0, 4, 9})
	f.Add([]byte{9, 2, 7, 1, 0, 1, 5, 1, 2, 1, 2, 3, 1, 3, 4, 7, 5, 6, 1, 6, 7, 2, 2, 8, 1})
	f.Add([]byte{3, 1, 1})
	var sc SPScratch
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 1 + int(data[0])%48
		s, tv := int32(int(data[1])%n), int32(int(data[2])%n)
		rest := data[3:]
		g := New(n)
		var faults EdgeSet
		for len(rest) >= 3 {
			u, v, w := int32(int(rest[0])%n), int32(int(rest[1])%n), int64(rest[2]%16)+1
			rest = rest[3:]
			if u == v {
				continue
			}
			if _, dup := g.FindEdge(u, v); dup {
				continue
			}
			id := g.MustAddEdge(u, v, w)
			if w == 16 { // every 16th weight value also fails the edge
				if faults == nil {
					faults = NewEdgeSet()
				}
				faults[id] = true
			}
		}
		skip := SkipSet(faults)
		want := Distance(g, s, tv, skip)
		if got := sc.Distance(g, s, tv, skip); got != want {
			t.Fatalf("n=%d m=%d: Distance(%d,%d) = %d, want %d", n, g.M(), s, tv, got, want)
		}
		checkSPClean(t, &sc, "fuzz")
	})
}

// TestSPScratchWarmZeroAlloc gates the warm Opt search: once the scratch
// has grown, a call with a fault set performs no heap allocations.
func TestSPScratchWarmZeroAlloc(t *testing.T) {
	g, _ := FatTree(8)
	skip := SkipSet(NewEdgeSet(RandomFaults(g, 2, 3)...))
	var sc SPScratch
	pairs := [][2]int32{{0, int32(g.N() - 1)}, {5, 77}, {20, 21}, {100, 3}}
	for _, p := range pairs {
		sc.Distance(g, p[0], p[1], skip)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		p := pairs[i%len(pairs)]
		i++
		sc.Distance(g, p[0], p[1], skip)
	})
	if allocs != 0 {
		t.Fatalf("warm SPScratch.Distance: %v allocs per call, want 0", allocs)
	}
}
