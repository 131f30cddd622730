package graph

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"ftrouting/internal/xrand"
)

// search returns the index of x in the strictly ascending column col, if
// present, narrowing the window by arithmetic instead of a branch. It is
// the endpoint lookup of subgraphFromPartsRef.
func search(col []int32, x int32) (int32, bool) {
	base, n := 0, len(col)
	for n > 1 {
		half := n >> 1
		// Move up by half iff col[base+half] <= x: the sign of the 64-bit
		// difference masks the step.
		base += half &^ int((int64(x)-int64(col[base+half]))>>63)
		n -= half
	}
	return int32(base), n == 1 && col[base] == x
}

// subgraphFromPartsRef is the reference SubgraphFromParts: the same
// checks in the same order, with each edge endpoint resolved by a binary
// search over toGlobal instead of the pooled dense index.
func subgraphFromPartsRef(g *Graph, toGlobal []int32, edgeToGlobal []EdgeID) (*Subgraph, error) {
	prev := int32(-1)
	for _, v := range toGlobal {
		if v < 0 || int(v) >= g.N() {
			return nil, fmt.Errorf("graph: subgraph vertex %d out of range", v)
		}
		if v <= prev {
			return nil, fmt.Errorf("graph: subgraph vertices not strictly ascending at %d", v)
		}
		prev = v
	}
	edges := make([]Edge, len(edgeToGlobal))
	prevE := EdgeID(-1)
	for i, id := range edgeToGlobal {
		if id < 0 || int(id) >= g.M() {
			return nil, fmt.Errorf("graph: subgraph edge %d out of range", id)
		}
		if id <= prevE {
			return nil, fmt.Errorf("graph: subgraph edges not strictly ascending at %d", id)
		}
		prevE = id
		e := g.Edge(id)
		lu, okU := search(toGlobal, e.U)
		lv, okV := search(toGlobal, e.V)
		if !okU || !okV {
			return nil, fmt.Errorf("graph: subgraph edge %d has an endpoint outside the vertex set", id)
		}
		edges[i] = Edge{U: lu, V: lv, W: e.W}
	}
	local, err := FromEdges(len(toGlobal), edges)
	if err != nil {
		return nil, err
	}
	return &Subgraph{Local: local, ToGlobal: toGlobal, EdgeToGlobal: edgeToGlobal}, nil
}

// matchRef builds the subgraph of g on verts and edges with
// SubgraphFromParts and with the reference, each on its own copy of the
// lists, and fails unless both give the same error or the same local
// graph (ports included) and columns. It reports whether the parts were
// valid.
func matchRef(t testing.TB, name string, g *Graph, verts []int32, edges []EdgeID) bool {
	t.Helper()
	got, gotErr := SubgraphFromParts(g, slices.Clone(verts), slices.Clone(edges))
	want, wantErr := subgraphFromPartsRef(g, slices.Clone(verts), slices.Clone(edges))
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
	}
	if wantErr != nil {
		return false
	}
	if err := sameSubgraph(got, want); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return true
}

// sameSubgraph reports how a and b differ: local edges (ports included),
// adjacency lists or columns.
func sameSubgraph(a, b *Subgraph) error {
	if a.Local.N() != b.Local.N() || !slices.Equal(a.Local.Edges(), b.Local.Edges()) {
		return fmt.Errorf("local edges differ")
	}
	for u := int32(0); int(u) < a.Local.N(); u++ {
		if !slices.Equal(a.Local.Adj(u), b.Local.Adj(u)) {
			return fmt.Errorf("adjacency of %d differs", u)
		}
	}
	if !slices.Equal(a.ToGlobal, b.ToGlobal) || !slices.Equal(a.EdgeToGlobal, b.EdgeToGlobal) {
		return fmt.Errorf("columns differ")
	}
	return nil
}

// inducedEdges returns the ascending ids of the edges of g with both
// endpoints in the ascending vertex list verts.
func inducedEdges(g *Graph, verts []int32) []EdgeID {
	var ids []EdgeID
	for id, e := range g.Edges() {
		_, okU := slices.BinarySearch(verts, e.U)
		_, okV := slices.BinarySearch(verts, e.V)
		if okU && okV {
			ids = append(ids, EdgeID(id))
		}
	}
	return ids
}

// checkPoolClean fails unless an index taken from the pool is all zero
// up to its capacity.
func checkPoolClean(t testing.TB, name string) {
	t.Helper()
	idx := vertexIndexes.Get().(*vertexIndex)
	defer vertexIndexes.Put(idx)
	for v, x := range idx.loc[:cap(idx.loc)] {
		if x != 0 {
			t.Fatalf("%s: pooled index holds %d at vertex %d", name, x, v)
		}
	}
}

// brokenParts derives invalid part lists from the valid verts/edges of
// g: a vertex out of range on either side, unsorted and repeated
// vertices, edges out of range, unsorted and repeated edges, and an edge
// with an endpoint dropped from the vertex set.
func brokenParts(g *Graph, verts []int32, edges []EdgeID) map[string][2][]int32 {
	out := map[string][2][]int32{
		"vertex-negative":  {append([]int32{-1}, verts...), edges},
		"vertex-above":     {append(slices.Clone(verts), int32(g.N())), edges},
		"edge-negative":    {verts, append([]EdgeID{-1}, edges...)},
		"edge-above":       {verts, append(slices.Clone(edges), EdgeID(g.M()))},
		"endpoint-outside": {verts, []EdgeID{0}},
	}
	if len(verts) >= 2 {
		swapped := slices.Clone(verts)
		swapped[0], swapped[1] = swapped[1], swapped[0]
		out["vertex-unsorted"] = [2][]int32{swapped, edges}
		out["vertex-repeat"] = [2][]int32{append(slices.Clone(verts), verts[len(verts)-1]), edges}
	}
	if len(edges) >= 2 {
		swapped := slices.Clone(edges)
		swapped[0], swapped[1] = swapped[1], swapped[0]
		out["edge-unsorted"] = [2][]int32{verts, swapped}
		out["edge-repeat"] = [2][]int32{verts, append(slices.Clone(edges), edges[len(edges)-1])}
		// Dropping an endpoint of the middle edge leaves the edges before
		// it resolved through the index when the error is found.
		mid := g.Edge(edges[len(edges)/2])
		out["endpoint-dropped"] = [2][]int32{slices.DeleteFunc(slices.Clone(verts), func(v int32) bool { return v == mid.V }), edges}
	}
	return out
}

// sortedKeys returns the keys of m in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// indexMatrix is slabMatrix plus random graphs of several densities.
func indexMatrix() map[string]*Graph {
	gs := slabMatrix()
	for i, c := range []struct{ n, m int }{{1, 0}, {2, 1}, {30, 20}, {80, 400}, {200, 600}} {
		gs[fmt.Sprintf("gnm-%d-%d", c.n, c.m)] = GNM(c.n, c.m, uint64(40+i))
	}
	return gs
}

// TestSubgraphFromPartsMatchesReference compares SubgraphFromParts with
// the binary-search reference on random vertex subsets of every graph,
// with the induced edges, a subset of them, and each broken variant of
// the parts. After every error it checks that the pooled index is clean
// and that a valid build on a different subset (through both
// constructors) still matches the references.
func TestSubgraphFromPartsMatchesReference(t *testing.T) {
	rng := xrand.NewSplitMix64(21)
	gs := indexMatrix()
	for _, name := range sortedKeys(gs) {
		g := gs[name]
		for trial := 0; trial < 4; trial++ {
			verts := sortedSubset(g, rng)
			edges := inducedEdges(g, verts)
			matchRef(t, name+"/induced", g, verts, edges)
			some := slices.DeleteFunc(slices.Clone(edges), func(EdgeID) bool { return rng.Intn(2) == 0 })
			matchRef(t, name+"/edge-subset", g, verts, some)
			broken := brokenParts(g, verts, edges)
			for _, kind := range sortedKeys(broken) {
				p := broken[kind]
				label := name + "/" + kind
				if matchRef(t, label, g, p[0], p[1]) && kind != "endpoint-outside" {
					t.Fatalf("%s: broken parts accepted", label)
				}
				checkPoolClean(t, label)
				other := sortedSubset(g, rng)
				matchRef(t, label+"/next", g, other, inducedEdges(g, other))
				sub, err := Induced(g, other, Inf)
				if err != nil {
					t.Fatalf("%s/next: %v", label, err)
				}
				refLocal, refEdges := inducedPerEdge(g, other, Inf)
				sameGraph(t, label+"/next-induced", sub.Local, refLocal)
				if !slices.Equal(sub.EdgeToGlobal, refEdges) {
					t.Fatalf("%s/next-induced: kept edges %v, reference %v", label, sub.EdgeToGlobal, refEdges)
				}
			}
		}
	}
}

// TestInducedRejectsLikeSubgraphFromParts checks that Induced reports a
// bad vertex list with SubgraphFromParts's error and leaves the pool
// clean.
func TestInducedRejectsLikeSubgraphFromParts(t *testing.T) {
	g := Grid(4, 4)
	for _, verts := range [][]int32{{0, 3, -1}, {1, 2, 16}, {5, 4}, {2, 2}} {
		_, got := Induced(g, verts, Inf)
		_, want := subgraphFromPartsRef(g, verts, nil)
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Fatalf("%v: error %v, reference %v", verts, got, want)
		}
		checkPoolClean(t, fmt.Sprint(verts))
	}
}

// TestSubgraphFromPartsConcurrent builds subgraphs of one parent from 8
// goroutines at once, each on its own vertex subsets, and compares every
// build with a reference built beforehand. Run it under -race.
func TestSubgraphFromPartsConcurrent(t *testing.T) {
	g := RandomConnected(300, 900, 5)
	rng := xrand.NewSplitMix64(8)
	type job struct {
		verts []int32
		edges []EdgeID
		want  *Subgraph
	}
	const workers, rounds = 8, 40
	jobs := make([][]job, workers)
	for w := range jobs {
		for r := 0; r < 4; r++ {
			verts := sortedSubset(g, rng)
			edges := inducedEdges(g, verts)
			want, err := subgraphFromPartsRef(g, slices.Clone(verts), slices.Clone(edges))
			if err != nil {
				t.Fatal(err)
			}
			jobs[w] = append(jobs[w], job{verts, edges, want})
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := range jobs {
		wg.Add(1)
		go func(js []job) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				j := js[r%len(js)]
				got, err := SubgraphFromParts(g, slices.Clone(j.verts), slices.Clone(j.edges))
				if err == nil {
					err = sameSubgraph(got, j.want)
				}
				if err == nil && r%2 == 1 && len(j.verts) > 0 {
					// An error path in between: the index must come back
					// clean for the next round.
					_, bad := SubgraphFromParts(g, slices.Clone(j.verts[1:]), slices.Clone(j.edges))
					_, ref := subgraphFromPartsRef(g, j.verts[1:], j.edges)
					if fmt.Sprint(bad) != fmt.Sprint(ref) {
						err = fmt.Errorf("without vertex %d: error %v, reference %v", j.verts[0], bad, ref)
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(jobs[w])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// FuzzSubgraphFromParts compares SubgraphFromParts with the
// binary-search reference on a random parent graph. The vertex list is a
// bitmask of the parent's vertices (valid) or raw signed bytes (possibly
// out of range, unsorted or repeated); the edge list is a bitmask of the
// induced edges, a bitmask of all edges (possibly with an endpoint
// outside the set) or raw signed bytes.
func FuzzSubgraphFromParts(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint8(20), []byte{0, 0xff, 0x03}, []byte{0, 0xff, 0xff})
	f.Add(uint64(2), uint8(12), uint8(30), []byte{0, 0x5a, 0x0f}, []byte{1, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint64(3), uint8(6), uint8(8), []byte{1, 0, 3, 2}, []byte{2, 0, 1})
	f.Add(uint64(4), uint8(8), uint8(12), []byte{1, 0xff, 1, 9}, []byte{2, 3, 1, 0xfe})
	f.Add(uint64(5), uint8(40), uint8(200), []byte{0, 0xaa, 0x55, 0xaa, 0x55, 0xff}, []byte{0, 0x77})
	f.Add(uint64(6), uint8(1), uint8(0), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, n, m uint8, vb, eb []byte) {
		g := GNM(1+int(n)%64, int(m), seed)
		bit := func(mask []byte, i int) bool { return i/8 < len(mask) && mask[i/8]>>(i%8)&1 == 1 }
		raw := func(b []byte) []int32 {
			out := make([]int32, len(b))
			for i, x := range b {
				out[i] = int32(int8(x))
			}
			return out
		}
		var verts []int32
		if len(vb) > 0 && vb[0]&1 == 1 {
			verts = raw(vb[1:])
		} else {
			for v := 0; v < g.N(); v++ {
				if len(vb) > 0 && bit(vb[1:], v) {
					verts = append(verts, int32(v))
				}
			}
		}
		var edges []EdgeID
		mode := byte(0)
		if len(eb) > 0 {
			mode, eb = eb[0]%3, eb[1:]
		}
		switch mode {
		case 0:
			if slices.IsSorted(verts) {
				for i, id := range inducedEdges(g, verts) {
					if bit(eb, i) {
						edges = append(edges, id)
					}
				}
			}
		case 1:
			for id := 0; id < g.M(); id++ {
				if bit(eb, id) {
					edges = append(edges, EdgeID(id))
				}
			}
		default:
			edges = raw(eb)
		}
		matchRef(t, "fuzz", g, verts, edges)
		checkPoolClean(t, "fuzz")
	})
}
