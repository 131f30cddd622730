package treecover

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftrouting/internal/graph"
	"ftrouting/internal/parallel"
)

// checkCoverProperties asserts the three Definition 4.1 properties.
func checkCoverProperties(t *testing.T, g *graph.Graph, c *Cover) {
	t.Helper()
	n := g.N()
	skipHeavy := func(e graph.EdgeID) bool { return g.Edge(e).W > c.Rho }
	// Property 1: B_rho(v) ⊆ cluster[Home[v]].
	for v := int32(0); v < int32(n); v++ {
		home := c.Home[v]
		if home < 0 {
			t.Fatalf("vertex %d has no home cluster", v)
		}
		cl := c.Clusters[home]
		_, _, _, ball := graph.MultiSourceDijkstra(g, []int32{v}, skipHeavy, c.Rho)
		for _, w := range ball {
			if !cl.Sub.Contains(w) {
				t.Fatalf("rho=%d: ball of %d leaks %d out of home cluster", c.Rho, v, w)
			}
		}
	}
	// Property 2: radius <= (2k-1) * rho (we build k*rho, test the paper's
	// bound).
	for j, cl := range c.Clusters {
		if cl.Radius > int64(2*c.K-1)*c.Rho {
			t.Fatalf("cluster %d radius %d > (2k-1)rho = %d", j, cl.Radius, int64(2*c.K-1)*c.Rho)
		}
	}
	// Property 3, verified empirically within a constant factor (see
	// DESIGN.md, Substitutions: the analytic max-overlap bound belongs to
	// the fancier [AP90] construction; all downstream space accounting uses
	// measured sizes): total volume O(n^{1+1/k}) and per-vertex overlap
	// O(k n^{1/k}).
	st := c.Stats(n)
	volBound := 2*float64(n)*math.Pow(float64(n), 1/float64(c.K)) + float64(n)
	if float64(st.TotalVertices) > volBound {
		t.Fatalf("total cluster volume %d exceeds 2*n^(1+1/k)=%f", st.TotalVertices, volBound)
	}
	overlapBound := 4*float64(c.K)*math.Pow(float64(n), 1/float64(c.K)) + 4
	if float64(st.MaxOverlap) > overlapBound {
		t.Fatalf("max overlap %d exceeds 4k*n^(1/k)=%f", st.MaxOverlap, overlapBound)
	}
}

func TestCoverPropertiesUnweighted(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		g := graph.RandomConnected(60, 80, 7)
		for _, rho := range []int64{1, 2, 4, 8} {
			c, err := Build(g, rho, k)
			if err != nil {
				t.Fatal(err)
			}
			checkCoverProperties(t, g, c)
		}
	}
}

func TestCoverPropertiesWeighted(t *testing.T) {
	g := graph.WithRandomWeights(graph.RandomConnected(50, 70, 3), 8, 5)
	for _, k := range []int{2, 3} {
		for _, rho := range []int64{1, 4, 16, 64} {
			c, err := Build(g, rho, k)
			if err != nil {
				t.Fatal(err)
			}
			checkCoverProperties(t, g, c)
		}
	}
}

func TestCoverGrid(t *testing.T) {
	g := graph.Grid(8, 8)
	c, err := Build(g, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkCoverProperties(t, g, c)
}

func TestCoverDisconnected(t *testing.T) {
	g := graph.New(8)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(4, 5, 1)
	c, err := Build(g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkCoverProperties(t, g, c)
	// Isolated vertices get singleton clusters.
	home := c.Home[7]
	if c.Clusters[home].Sub.Local.N() != 1 {
		t.Fatal("isolated vertex should live in a singleton cluster")
	}
}

func TestHeavyEdgesExcluded(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 10)
	g.MustAddEdge(1, 2, 1)
	c, err := Build(g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The heavy edge (w=10 > rho=2) must appear in no cluster subgraph.
	for _, cl := range c.Clusters {
		for le := graph.EdgeID(0); int(le) < cl.Sub.Local.M(); le++ {
			if cl.Sub.Local.Edge(le).W > 2 {
				t.Fatal("heavy edge leaked into cluster")
			}
		}
	}
}

func TestK1GivesBalls(t *testing.T) {
	// k=1: the expansion cap is n, so the first ball always wins; clusters
	// are exactly rho-balls and radii <= rho.
	g := graph.RandomConnected(40, 60, 2)
	c, err := Build(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range c.Clusters {
		if cl.Radius > 2 {
			t.Fatalf("k=1 cluster radius %d > rho", cl.Radius)
		}
	}
	checkCoverProperties(t, g, c)
}

func TestLargeRhoSingleCluster(t *testing.T) {
	// rho >= diameter: the first cluster swallows the whole graph.
	g := graph.RandomConnected(30, 40, 1)
	c, err := Build(g, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Clusters[0].Sub.Local.N(); got != 30 {
		t.Fatalf("cluster 0 has %d vertices, want 30", got)
	}
	checkCoverProperties(t, g, c)
}

func TestTreeIsShortestPathTree(t *testing.T) {
	g := graph.WithRandomWeights(graph.RandomConnected(40, 60, 9), 5, 4)
	c, err := Build(g, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range c.Clusters {
		center, ok := cl.Sub.LocalVertex(cl.Center)
		if !ok {
			t.Fatalf("center %d outside its cluster", cl.Center)
		}
		dist, _, _, _ := graph.Dijkstra(cl.Sub.Local, center, nil)
		wd := cl.Tree.WeightedDepth()
		for v := int32(0); v < int32(cl.Sub.Local.N()); v++ {
			if wd[v] != dist[v] {
				t.Fatalf("cluster tree depth %d != dijkstra %d at %d", wd[v], dist[v], v)
			}
		}
	}
}

func TestBuildErrors(t *testing.T) {
	g := graph.Path(3)
	if _, err := Build(g, 0, 2); err == nil {
		t.Fatal("rho=0 accepted")
	}
	if _, err := Build(g, 2, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestHierarchyScales(t *testing.T) {
	g := graph.WithRandomWeights(graph.RandomConnected(40, 50, 5), 4, 6)
	h, err := BuildHierarchy(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Scales) != h.K+1 {
		t.Fatalf("scales = %d, K = %d", len(h.Scales), h.K)
	}
	// 2^K must be at least any pairwise distance.
	maxD := int64(0)
	for v := int32(0); v < 40; v++ {
		if e := graph.Eccentricity(g, v, nil); e > maxD {
			maxD = e
		}
	}
	if int64(1)<<uint(h.K) < maxD {
		t.Fatalf("2^K = %d < diameter %d", int64(1)<<uint(h.K), maxD)
	}
	for i, cover := range h.Scales {
		if cover.Rho != int64(1)<<uint(i) {
			t.Fatalf("scale %d has rho %d", i, cover.Rho)
		}
	}
	if h.Home(0, 3) != h.Scales[0].Home[3] {
		t.Fatal("Home accessor mismatch")
	}
}

func TestStats(t *testing.T) {
	g := graph.RandomConnected(50, 60, 8)
	c, err := Build(g, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats(50)
	if st.NumClusters != len(c.Clusters) {
		t.Fatal("NumClusters")
	}
	if st.MaxOverlap < 1 || st.AvgOverlap < 1 {
		t.Fatal("overlap must be at least 1")
	}
	if float64(st.MaxOverlap) < st.AvgOverlap {
		t.Fatal("max < avg")
	}
}

// hierarchyGenerators is the topology matrix the determinism tests run
// over: each entry exercises a different cover shape (dense random,
// weighted, grid, path, disconnected).
func hierarchyGenerators() map[string]*graph.Graph {
	disc := graph.New(20)
	disc.MustAddEdge(0, 1, 1)
	disc.MustAddEdge(1, 2, 3)
	disc.MustAddEdge(3, 4, 1)
	disc.MustAddEdge(10, 11, 2)
	disc.MustAddEdge(11, 12, 2)
	return map[string]*graph.Graph{
		"random":       graph.RandomConnected(60, 100, 11),
		"weighted":     graph.WithRandomWeights(graph.RandomConnected(50, 80, 4), 9, 13),
		"grid":         graph.Grid(7, 7),
		"path":         graph.Path(40),
		"disconnected": disc,
	}
}

func TestHierarchyParallelDeterminism(t *testing.T) {
	for name, g := range hierarchyGenerators() {
		for _, k := range []int{1, 2, 3} {
			seq, err := BuildHierarchyP(g, k, 1)
			if err != nil {
				t.Fatalf("%s k=%d sequential: %v", name, k, err)
			}
			par, err := BuildHierarchyP(g, k, 0) // GOMAXPROCS workers
			if err != nil {
				t.Fatalf("%s k=%d parallel: %v", name, k, err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("%s k=%d: parallel hierarchy differs from sequential", name, k)
			}
		}
	}
}

func TestHierarchyConcurrentBuilds(t *testing.T) {
	// Concurrent BuildHierarchy calls over a shared graph must not race
	// (run under -race) and must all produce the sequential hierarchy.
	g := graph.WithRandomWeights(graph.RandomConnected(50, 80, 21), 6, 17)
	want, err := BuildHierarchyP(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]*Hierarchy, 4)
	errs := make([]error, 4)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = BuildHierarchy(g, 2)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("build %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(want, got[i]) {
			t.Fatalf("concurrent build %d differs from sequential", i)
		}
	}
}

// partialHierarchy returns a copy of a built hierarchy with every other
// cluster slot of each scale set to nil, the shape a shard's partial
// hierarchy has, and the number of clusters it keeps.
func partialHierarchy(t *testing.T) (*Hierarchy, int) {
	t.Helper()
	full, err := BuildHierarchyP(graph.RandomConnected(60, 100, 11), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := &Hierarchy{G: full.G, K: full.K}
	kept := 0
	for _, cover := range full.Scales {
		c := *cover
		c.Clusters = append([]*Cluster(nil), cover.Clusters...)
		for j := range c.Clusters {
			if j%2 == 1 {
				c.Clusters[j] = nil
			} else {
				kept++
			}
		}
		h.Scales = append(h.Scales, &c)
	}
	return h, kept
}

func TestBuildInstancesPartial(t *testing.T) {
	h, kept := partialHierarchy(t)
	for _, par := range []int{1, 3} {
		var calls atomic.Int64
		rows, err := BuildInstances(h, par, func(i, j int, cl *Cluster, _ int) (*Cluster, error) {
			calls.Add(1)
			if cl == nil || cl != h.Scales[i].Clusters[j] {
				t.Errorf("build (%d,%d) got cluster %p, want the hierarchy's", i, j, cl)
			}
			return cl, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := int(calls.Load()); got != kept {
			t.Fatalf("parallelism %d: %d build calls, want one per held cluster (%d)", par, got, kept)
		}
		if len(rows) != len(h.Scales) {
			t.Fatalf("parallelism %d: %d rows, want %d", par, len(rows), len(h.Scales))
		}
		for i, cover := range h.Scales {
			// Held slots hold their build's value; nil slots the zero T.
			if !reflect.DeepEqual(rows[i], cover.Clusters) {
				t.Fatalf("parallelism %d: row %d differs from the hierarchy's cluster slots", par, i)
			}
		}
	}
}

func TestBuildInstancesWorkerBudget(t *testing.T) {
	h, kept := partialHierarchy(t)
	for _, par := range []int{0, 1, 2, 3, 3 * kept} {
		budget := parallel.Workers(par)
		outer := min(budget, kept)
		wantInner := max(1, budget/outer)
		var inFlight, peak atomic.Int64
		_, err := BuildInstances(h, par, func(i, j int, _ *Cluster, workers int) (struct{}, error) {
			now := inFlight.Add(1)
			defer inFlight.Add(-1)
			for {
				old := peak.Load()
				if now <= old || peak.CompareAndSwap(old, now) {
					break
				}
			}
			if workers != wantInner {
				t.Errorf("parallelism %d: build (%d,%d) got %d workers, want %d", par, i, j, workers, wantInner)
			}
			time.Sleep(200 * time.Microsecond) // let concurrent builds overlap
			return struct{}{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := int(peak.Load()); got > outer {
			t.Fatalf("parallelism %d: %d builds ran at once, want at most %d", par, got, outer)
		}
	}
}

func TestBuildInstancesError(t *testing.T) {
	h, _ := partialHierarchy(t)
	boom := errors.New("boom")
	for _, par := range []int{1, 3} {
		rows, err := BuildInstances(h, par, func(i, j int, _ *Cluster, _ int) (int, error) {
			if i == 1 && j == 0 {
				return 0, boom
			}
			return 1, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("parallelism %d: err = %v, want the failing build's", par, err)
		}
		if rows != nil {
			t.Fatalf("parallelism %d: failed build returned rows %v", par, rows)
		}
	}
}

func BenchmarkHierarchyBuildSequential(b *testing.B) {
	g := graph.WithRandomWeights(graph.RandomConnected(200, 400, 3), 7, 29)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildHierarchyP(g, 2, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHierarchyBuildParallel(b *testing.B) {
	g := graph.WithRandomWeights(graph.RandomConnected(200, 400, 3), 7, 29)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildHierarchyP(g, 2, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildCover(b *testing.B) {
	g := graph.RandomConnected(400, 800, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, 8, 2); err != nil {
			b.Fatal(err)
		}
	}
}
