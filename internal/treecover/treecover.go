// Package treecover implements the tree covers TC(G, ω, ρ, k) of
// Definition 4.1 via region-growing sparse covers (the [Pel00] construction
// cited by Proposition 4.2; see DESIGN.md, Substitutions, for the exact
// variant):
//
//  1. for every vertex v there is a tree containing its whole ρ-ball,
//  2. every tree has radius <= k·ρ (within the paper's (2k-1)·ρ),
//  3. total cluster volume per scale is <= n^{1+1/k} (average overlap
//     n^{1/k}; the max overlap is measured by Stats and experiment E14).
//
// Kernels grow in ρ-increments until the ball around the kernel is no
// larger than n^{1/k} times the kernel; the ball becomes a cluster, the
// kernel's vertices are "served" by it (their ρ-balls are inside), and the
// process repeats on unserved vertices. Each cluster materializes as an
// induced Subgraph (with edges heavier than ρ removed — the paper's G\H_i)
// plus the shortest-path tree from its center.
package treecover

import (
	"fmt"
	"math"

	"ftrouting/internal/graph"
	"ftrouting/internal/parallel"
)

// Cluster is one tree of the cover: an induced subgraph of G on the
// cluster's vertices (light edges only) with a shortest-path tree from the
// center. The connectivity labeling of Section 4 runs on Sub.Local/Tree.
type Cluster struct {
	Center int32 // global vertex id of the kernel origin
	Sub    *graph.Subgraph
	Tree   *graph.Tree // rooted at the local id of Center
	Radius int64       // measured weighted radius of Tree
}

// Cover is the tree cover of one distance scale.
type Cover struct {
	Rho      int64
	K        int
	Clusters []*Cluster
	// Home[v] is the index i*(v) of a cluster containing B_rho(v)
	// (Section 4). Every vertex has one.
	Home []int32
}

// Build computes TC(G, ω, ρ, k). Edges heavier than rho are ignored (they
// cannot lie on any path of length <= rho).
func Build(g *graph.Graph, rho int64, k int) (*Cover, error) {
	if rho < 1 || k < 1 {
		return nil, fmt.Errorf("treecover: need rho >= 1 and k >= 1, got %d, %d", rho, k)
	}
	n := g.N()
	c := &Cover{Rho: rho, K: k, Home: make([]int32, n)}
	for i := range c.Home {
		c.Home[i] = -1
	}
	if n == 0 {
		return c, nil
	}
	skipHeavy := func(e graph.EdgeID) bool { return g.Edge(e).W > rho }
	expansion := math.Pow(float64(n), 1/float64(k))

	for v0 := int32(0); v0 < int32(n); v0++ {
		if c.Home[v0] >= 0 {
			continue
		}
		kernel := []int32{v0}
		var ball []int32
		// At most k rounds: each failed size test multiplies |kernel| by
		// more than n^{1/k}.
		for round := 0; ; round++ {
			dist, _, _, order := graph.MultiSourceDijkstra(g, kernel, skipHeavy, rho)
			_ = dist
			ball = order
			if float64(len(ball)) <= expansion*float64(len(kernel)) {
				break
			}
			if round > k {
				return nil, fmt.Errorf("treecover: kernel growth did not converge (bug)")
			}
			kernel = ball
		}
		idx := int32(len(c.Clusters))
		sub, err := graph.Induced(g, graph.SortedCopy(ball), rho)
		if err != nil {
			return nil, err
		}
		localCenter, _ := sub.LocalVertex(v0)
		tree := graph.ShortestPathTree(sub.Local, localCenter, nil)
		if tree.Size() != sub.Local.N() {
			return nil, fmt.Errorf("treecover: cluster subgraph not connected from center (bug)")
		}
		var radius int64
		for _, d := range tree.WeightedDepth() {
			if d > radius {
				radius = d
			}
		}
		c.Clusters = append(c.Clusters, &Cluster{
			Center: v0,
			Sub:    sub,
			Tree:   tree,
			Radius: radius,
		})
		for _, w := range kernel {
			if c.Home[w] < 0 {
				c.Home[w] = idx
			}
		}
	}
	return c, nil
}

// Stats summarizes cover quality for experiment E14.
type Stats struct {
	NumClusters int
	MaxRadius   int64
	// MaxOverlap / AvgOverlap: how many clusters a vertex belongs to.
	MaxOverlap int
	AvgOverlap float64
	// TotalVertices is the sum of cluster sizes (drives total label space).
	TotalVertices int
}

// Stats computes cover statistics.
func (c *Cover) Stats(n int) Stats {
	s := Stats{NumClusters: len(c.Clusters)}
	count := make([]int, n)
	for _, cl := range c.Clusters {
		if cl.Radius > s.MaxRadius {
			s.MaxRadius = cl.Radius
		}
		s.TotalVertices += cl.Sub.Local.N()
		for _, gv := range cl.Sub.ToGlobal {
			count[gv]++
		}
	}
	for _, cnt := range count {
		if cnt > s.MaxOverlap {
			s.MaxOverlap = cnt
		}
	}
	if n > 0 {
		s.AvgOverlap = float64(s.TotalVertices) / float64(n)
	}
	return s
}

// Hierarchy is the full set of covers across distance scales: scale i has
// ρ = 2^i, for i = 0..K with 2^K at least the diameter (Eq. 4: TC_i =
// TC(G \ H_i, ω, 2^i, k)).
type Hierarchy struct {
	G      *graph.Graph
	K      int
	Scales []*Cover // Scales[i] has Rho = 2^i
}

// BuildHierarchy computes covers for every scale. K is derived from a
// diameter upper bound, giving the paper's K = O(log(nW)) scales. Scales
// are built concurrently on every available core; see BuildHierarchyP.
func BuildHierarchy(g *graph.Graph, k int) (*Hierarchy, error) {
	return BuildHierarchyP(g, k, 0)
}

// BuildHierarchyP is BuildHierarchy with an explicit worker count
// (parallel.Workers semantics: <= 0 means GOMAXPROCS, 1 means
// sequential). Each scale's cover is an independent, seedless
// region-growing run — its output depends only on (g, rho, k) — so the
// hierarchy is bit-identical at every parallelism level.
func BuildHierarchyP(g *graph.Graph, k, parallelism int) (*Hierarchy, error) {
	bound := graph.DiameterUpperBound(g)
	kScales := 0
	for v := int64(1); v < bound; v <<= 1 {
		kScales++
	}
	scales, err := parallel.Map(parallelism, kScales+1, func(i int) (*Cover, error) {
		return Build(g, int64(1)<<uint(i), k)
	})
	if err != nil {
		return nil, err
	}
	return &Hierarchy{G: g, K: kScales, Scales: scales}, nil
}

// Cluster returns the cluster j of scale i.
func (h *Hierarchy) Cluster(i int, j int32) *Cluster { return h.Scales[i].Clusters[j] }

// Home returns i*(v) at scale i.
func (h *Hierarchy) Home(i int, v int32) int32 { return h.Scales[i].Home[v] }

// CheckHeld rejects a query endpoint without a home cluster. Every vertex
// of a built hierarchy has one; a partial (shard) hierarchy has them only
// for the vertices of the components it holds.
func (h *Hierarchy) CheckHeld(s, t int32) error {
	for _, v := range [2]int32{s, t} {
		if h.Scales[0].Home[v] < 0 {
			return fmt.Errorf("treecover: vertex %d lies in a component the partial scheme does not hold", v)
		}
	}
	return nil
}

// BuildInstances builds one value per (scale, cluster) of h — the
// per-instance labelings of the distance labels (Section 4) and the
// routers (Section 5) — and returns them as rows indexed [scale][cluster].
// A nil cluster slot of a partial (shard) hierarchy keeps its index, so
// global (scale, cluster) coordinates and every seed derived from them
// stay stable, but gets the zero T and no build call. The grid is
// flattened, so one scale's large clusters do not serialize behind
// another's, and fanned out over at most Workers(parallelism) builds at
// once; each build gets an equal share of that budget (at least 1) for
// its inner loops. A build's output must depend only on its arguments,
// never on build order, which makes the rows bit-identical at any
// parallelism; on failure the lowest-indexed error is returned.
func BuildInstances[T any](h *Hierarchy, parallelism int, build func(i, j int, cl *Cluster, workers int) (T, error)) ([][]T, error) {
	type coord struct{ i, j int }
	rows := make([][]T, len(h.Scales))
	var coords []coord
	for i, cover := range h.Scales {
		rows[i] = make([]T, len(cover.Clusters))
		for j, cl := range cover.Clusters {
			if cl != nil {
				coords = append(coords, coord{i, j})
			}
		}
	}
	budget := parallel.Workers(parallelism)
	outer := max(1, min(budget, len(coords)))
	inner := max(1, budget/outer)
	err := parallel.ForEach(outer, len(coords), func(idx int) error {
		i, j := coords[idx].i, coords[idx].j
		v, err := build(i, j, h.Scales[i].Clusters[j], inner)
		if err != nil {
			return err
		}
		rows[i][j] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
