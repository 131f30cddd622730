// Package ftrouting is a Go implementation of the fault-tolerant labeling
// and compact routing schemes of Dory and Parter, "Fault-Tolerant Labeling
// and Compact Routing Schemes" (PODC 2021, arXiv:2106.00374).
//
// It provides three layers, mirroring the paper:
//
//   - FT connectivity labels (Theorems 3.6 and 3.7): BuildConnectivityLabels
//     assigns short labels to vertices and edges so that connectivity of s
//     and t under any set of at most f edge faults F can be decided from
//     the labels of s, t and F alone.
//
//   - FT approximate distance labels (Theorem 1.4): BuildDistanceLabels
//     returns (8k-2)(|F|+1)-stretch distance estimates under faults.
//
//   - FT compact routing (Theorems 5.3, 5.5, 5.8): NewRouter preprocesses
//     routing tables and labels; Route delivers messages under unknown
//     edge faults with stretch 32k(|F|+1)^2, RouteForbidden under known
//     faults with stretch (8k-2)(|F|+1).
//
// All schemes are randomized with per-query high-probability guarantees
// and are fully deterministic for a fixed seed. Graphs may be weighted
// (positive integer weights) and disconnected (schemes are applied per
// component, as in the paper).
//
// Preprocessing is parallel: construction fans out across connected
// components, tree-cover scales and clusters, sketch copies, and vertices
// on a bounded worker pool (package internal/parallel). The Parallelism
// field on ConnOptions and RouterOptions (and on the internal distlabel
// and route Options) selects the worker count — 0 uses GOMAXPROCS, 1
// restores sequential construction. All randomness is derived from the
// seed and the item's index, never from execution order, so equal seeds
// produce bit-identical labels, tables, and routes at any parallelism.
//
// Schemes persist: SaveConnLabels/SaveDistLabels/SaveRouter write a
// self-describing versioned binary file (package internal/codec) and the
// matching Load functions reconstitute a scheme answering queries
// bit-identically to the saved one, without re-running the graph-search
// preprocessing — build once, serve from disk (see persist.go and the
// ftroute build/query subcommands).
//
// Schemes shard: because every label is built and decoded per connected
// component, SaveSharded (or its typed forms SaveShardedConn/Dist/Router)
// splits a scheme into a manifest (parameters, topology, the vertex →
// (component, shard) directory) plus per-component shard files, each
// loading into a partial scheme that answers its components'
// queries bit-identically to the whole. Manifest.PlanBatch routes a
// QueryBatch across shards — cross-component pairs are answered from
// the directory alone — and `ftroute serve -in shards/` serves a manifest
// behind a bounded resident-shard cache (see shard.go and package
// serve).
package ftrouting

import (
	"fmt"
	"io"

	"ftrouting/internal/core"
	"ftrouting/internal/distlabel"
	"ftrouting/internal/graph"
	"ftrouting/internal/parallel"
	"ftrouting/internal/route"
	"ftrouting/internal/xrand"
)

// Graph is a weighted undirected graph with stable edge IDs and port
// numbers. See the generator functions for ready-made topologies.
type Graph = graph.Graph

// EdgeID identifies an edge of a Graph.
type EdgeID = graph.EdgeID

// EdgeSet is a set of edges (a fault set F).
type EdgeSet = graph.EdgeSet

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// NewEdgeSet builds a fault set.
func NewEdgeSet(ids ...EdgeID) EdgeSet { return graph.NewEdgeSet(ids...) }

// Generator wrappers: deterministic test/workload topologies.

// Path returns the n-vertex path graph.
func Path(n int) *Graph { return graph.Path(n) }

// Cycle returns the n-cycle.
func Cycle(n int) *Graph { return graph.Cycle(n) }

// Grid returns the rows x cols grid.
func Grid(rows, cols int) *Graph { return graph.Grid(rows, cols) }

// Hypercube returns the dim-dimensional hypercube.
func Hypercube(dim int) *Graph { return graph.Hypercube(dim) }

// Star returns an n-vertex star.
func Star(n int) *Graph { return graph.Star(n) }

// RandomConnected returns a random connected graph with n-1+extra edges.
func RandomConnected(n, extra int, seed uint64) *Graph {
	return graph.RandomConnected(n, extra, seed)
}

// RandomTree returns a random labeled tree.
func RandomTree(n int, seed uint64) *Graph { return graph.RandomTree(n, seed) }

// FatTree returns a k-ary fat-tree datacenter topology and the index of the
// first host vertex.
func FatTree(k int) (*Graph, int32) { return graph.FatTree(k) }

// RingOfCliques returns num cliques of the given size joined in a ring.
func RingOfCliques(num, size int) *Graph { return graph.RingOfCliques(num, size) }

// Islands returns k disjoint random connected components of n vertices
// each — the multi-component workload per-component sharding
// (SaveShardedConn and friends) distributes across shard files.
func Islands(k, n, extra int, seed uint64) *Graph { return graph.Islands(k, n, extra, seed) }

// Wheel returns a hub joined to a rim cycle.
func Wheel(n int) *Graph { return graph.Wheel(n) }

// Torus returns a grid with wraparound (2-edge-connected).
func Torus(rows, cols int) *Graph { return graph.Torus(rows, cols) }

// PreferentialAttachment returns a hub-heavy random connected graph.
func PreferentialAttachment(n, deg int, seed uint64) *Graph {
	return graph.PreferentialAttachment(n, deg, seed)
}

// ReadEdgeList parses a SNAP-style edge list ("u v" or "u v w" lines,
// '#'/'%' comments, arbitrary ids densified in first-appearance order,
// self-loops and duplicates dropped) — the import path for real
// router/AS topologies.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// LoadEdgeList reads a SNAP-style edge-list file (see ReadEdgeList).
func LoadEdgeList(path string) (*Graph, error) { return graph.LoadEdgeList(path) }

// LowerBoundGraph returns the Theorem 1.6 instance: f+1 vertex-disjoint s-t
// paths with the last edge of each path returned for fault injection.
func LowerBoundGraph(f, pathLen int) (g *Graph, s, t int32, lastEdges []EdgeID) {
	return graph.LowerBoundGraph(f, pathLen)
}

// WithRandomWeights reweights a graph uniformly in [1, maxW].
func WithRandomWeights(g *Graph, maxW int64, seed uint64) *Graph {
	return graph.WithRandomWeights(g, maxW, seed)
}

// RandomFaults draws k distinct random edges.
func RandomFaults(g *Graph, k int, seed uint64) []EdgeID {
	return graph.RandomFaults(g, k, seed)
}

// Distance returns dist_{G\F}(s,t), or Inf when disconnected — the
// ground-truth oracle (not label-based; for measurement only).
func Distance(g *Graph, s, t int32, faults EdgeSet) int64 {
	return graph.Distance(g, s, t, graph.SkipSet(faults))
}

// Inf is the distance of disconnected pairs.
const Inf = graph.Inf

// ConnSchemeKind selects one of the paper's two connectivity labelings.
type ConnSchemeKind int

const (
	// CutBased is the cycle-space scheme of Theorem 3.6: labels of
	// O(f + log n) bits, decoding by GF(2) elimination.
	CutBased ConnSchemeKind = iota + 1
	// SketchBased is the graph-sketch scheme of Theorem 3.7: labels of
	// O(log^3 n) bits independent of f, Õ(f) decoding, and succinct path
	// output.
	SketchBased
)

// ConnOptions configures BuildConnectivityLabels.
type ConnOptions struct {
	// Scheme defaults to SketchBased.
	Scheme ConnSchemeKind
	// MaxFaults is the fault bound f (required by the cut-based scheme's
	// label sizing; the sketch-based labels are f-independent).
	MaxFaults int
	// Seed drives all randomness; equal seeds give identical labelings.
	Seed uint64
	// Parallelism bounds the worker goroutines used during construction:
	// 0 uses GOMAXPROCS, 1 builds sequentially. Labels are bit-identical
	// at any parallelism for a fixed seed.
	Parallelism int
}

// ConnLabels is an f-FT connectivity labeling of a graph. Labels are
// per-component (disconnected inputs are handled by tagging labels with a
// component id, as prescribed in Section 3).
type ConnLabels struct {
	g        *Graph
	opts     ConnOptions
	comp     []int32
	subs     []*graph.Subgraph
	cuts     []*core.CutScheme
	sketches []*core.SketchScheme
}

// VertexLabel is an opaque connectivity vertex label.
type VertexLabel struct {
	comp   int32
	cut    core.CutVertexLabel
	sketch core.SketchVertexLabel
	bits   int
}

// Bits returns the label length in bits.
func (l VertexLabel) Bits() int { return l.bits }

// EdgeLabel is an opaque connectivity edge label.
type EdgeLabel struct {
	comp   int32
	cut    core.CutEdgeLabel
	sketch core.SketchEdgeLabel
	bits   int
}

// Bits returns the label length in bits.
func (l EdgeLabel) Bits() int { return l.bits }

// BuildConnectivityLabels labels every vertex and edge of g.
func BuildConnectivityLabels(g *Graph, opts ConnOptions) (*ConnLabels, error) {
	if opts.Scheme == 0 {
		opts.Scheme = SketchBased
	}
	if opts.Scheme != CutBased && opts.Scheme != SketchBased {
		return nil, fmt.Errorf("ftrouting: unknown scheme %d", opts.Scheme)
	}
	if opts.MaxFaults < 0 {
		return nil, fmt.Errorf("ftrouting: negative fault bound")
	}
	comp, count := graph.Components(g, nil)
	c := &ConnLabels{g: g, opts: opts, comp: comp}
	members := make([][]int32, count)
	for v := int32(0); v < int32(g.N()); v++ {
		members[comp[v]] = append(members[comp[v]], v)
	}
	// Components are independent instances (Section 3 tags labels with a
	// component id), so their schemes build concurrently; each derives its
	// randomness from the component index.
	c.subs = make([]*graph.Subgraph, count)
	c.cuts = make([]*core.CutScheme, count)
	c.sketches = make([]*core.SketchScheme, count)
	err := parallel.ForEach(opts.Parallelism, count, func(ci int) error {
		sub, err := graph.Induced(g, members[ci], graph.Inf)
		if err != nil {
			return err
		}
		c.subs[ci] = sub
		return c.buildComponentScheme(ci, graph.BFSTree(sub.Local, 0, nil))
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// buildComponentScheme labels component ci on its subgraph with the given
// spanning tree, deriving the component seed from (Seed, ci). Both the
// fresh build above and LoadConnLabels go through here, so a loaded
// labeling is bit-identical to the originally built one.
func (c *ConnLabels) buildComponentScheme(ci int, tree *graph.Tree) error {
	seed := xrand.DeriveSeed(c.opts.Seed, uint64(ci))
	switch c.opts.Scheme {
	case CutBased:
		s, err := core.BuildCut(c.subs[ci].Local, tree, core.CutOptions{MaxFaults: c.opts.MaxFaults, Seed: seed})
		if err != nil {
			return err
		}
		c.cuts[ci] = s
	case SketchBased:
		s, err := core.BuildSketch(c.subs[ci].Local, tree, core.SketchOptions{Seed: seed})
		if err != nil {
			return err
		}
		c.sketches[ci] = s
	}
	return nil
}

// componentTree returns the spanning tree component ci was labeled on.
func (c *ConnLabels) componentTree(ci int) *graph.Tree {
	if c.cuts[ci] != nil {
		return c.cuts[ci].Tree()
	}
	return c.sketches[ci].Tree()
}

// compBits is the component-id tag length added to every label.
func (c *ConnLabels) compBits() int {
	b := 0
	for v := len(c.subs); v > 0; v >>= 1 {
		b++
	}
	return b
}

// VertexLabel returns the label of vertex v. A partial (shard) scheme
// labels only the vertices it holds; for any other v it panics with the
// error its queries return for such an endpoint.
func (c *ConnLabels) VertexLabel(v int32) VertexLabel {
	mustHold(c.checkHeld(v, v))
	ci := c.comp[v]
	lv, _ := c.subs[ci].LocalVertex(v)
	l := VertexLabel{comp: ci}
	n := c.subs[ci].Local.N()
	switch c.opts.Scheme {
	case CutBased:
		l.cut = c.cuts[ci].VertexLabel(lv)
		l.bits = l.cut.BitLen(n) + c.compBits()
	case SketchBased:
		l.sketch = c.sketches[ci].VertexLabel(lv)
		l.bits = l.sketch.BitLen(n) + c.compBits()
	}
	return l
}

// EdgeLabel returns the label of edge id. A partial (shard) scheme labels
// only the edges of the components it holds, and panics like VertexLabel
// for any other edge.
func (c *ConnLabels) EdgeLabel(id EdgeID) EdgeLabel {
	e := c.g.Edge(id)
	mustHold(c.checkHeld(e.U, e.U))
	ci := c.comp[e.U]
	le, _ := c.subs[ci].LocalEdge(id)
	l := EdgeLabel{comp: ci}
	n := c.subs[ci].Local.N()
	switch c.opts.Scheme {
	case CutBased:
		l.cut = c.cuts[ci].EdgeLabel(le)
		l.bits = l.cut.BitLen(n) + c.compBits()
	case SketchBased:
		l.sketch = c.sketches[ci].EdgeLabel(le)
		l.bits = l.sketch.BitLen() + c.compBits()
	}
	return l
}

// Graph returns the labeled graph.
func (c *ConnLabels) Graph() *Graph { return c.g }

// FaultBound returns the fault bound f the labels were sized for, or -1
// for the sketch-based scheme (f-independent labels).
func (c *ConnLabels) FaultBound() int {
	if c.opts.Scheme == CutBased {
		return c.opts.MaxFaults
	}
	return -1
}

// Query decides from labels alone whether the two vertices are connected
// after removing the faulty edges. This is the decoder D of Section 2: it
// uses no information beyond the given labels.
func (c *ConnLabels) Query(s, t VertexLabel, faults []EdgeLabel) (bool, error) {
	if s.comp != t.comp {
		return false, nil
	}
	switch c.opts.Scheme {
	case CutBased:
		var fl []core.CutEdgeLabel
		for _, f := range faults {
			if f.comp == s.comp {
				fl = append(fl, f.cut)
			}
		}
		return core.DecodeCut(s.cut, t.cut, fl), nil
	case SketchBased:
		var fl []core.SketchEdgeLabel
		for _, f := range faults {
			if f.comp == s.comp {
				fl = append(fl, f.sketch)
			}
		}
		v, err := c.sketches[s.comp].Decode(s.sketch, t.sketch, fl, 0, false)
		if err != nil {
			return false, err
		}
		return v.Connected, nil
	}
	return false, fmt.Errorf("ftrouting: unknown scheme")
}

// Connected is the convenience form of Query over vertex/edge ids. A
// partial (shard) scheme ignores fault edges outside its components.
func (c *ConnLabels) Connected(s, t int32, faults []EdgeID) (bool, error) {
	if err := checkQuery(c.g, s, t, faults); err != nil {
		return false, err
	}
	if err := c.checkHeld(s, t); err != nil {
		return false, err
	}
	var fl []EdgeLabel
	for _, id := range faults {
		if c.holds(c.g.Edge(id).U) {
			fl = append(fl, c.EdgeLabel(id))
		}
	}
	return c.Query(c.VertexLabel(s), c.VertexLabel(t), fl)
}

// holds reports whether the scheme holds v's component: every component
// for a whole scheme, its own ones for a partial (shard) scheme.
func (c *ConnLabels) holds(v int32) bool { return c.subs[c.comp[v]] != nil }

// checkHeld rejects a pair with an endpoint outside the scheme's
// components.
func (c *ConnLabels) checkHeld(s, t int32) error {
	for _, v := range [2]int32{s, t} {
		if !c.holds(v) {
			return fmt.Errorf("ftrouting: vertex %d lies in a component the partial scheme does not hold", v)
		}
	}
	return nil
}

// mustHold guards the label accessors (VertexLabel, EdgeLabel, LabelBits,
// VertexLabelBits, EdgeLabelBits), which have no error result: asking a
// partial scheme for the label of a vertex or edge it does not hold is a
// caller bug, so it panics with err, the error a query naming that vertex
// returns. A whole scheme holds every vertex.
func mustHold(err error) {
	if err != nil {
		panic(err)
	}
}

// DistLabels is an f-FT approximate distance labeling (Theorem 1.4).
type DistLabels struct {
	inner *distlabel.Scheme
}

// Unreachable is the estimate returned for disconnected pairs.
const Unreachable = distlabel.Unreachable

// BuildDistanceLabels builds labels with stretch (8k-2)(|F|+1) for fault
// bound f and stretch parameter k.
func BuildDistanceLabels(g *Graph, f, k int, seed uint64) (*DistLabels, error) {
	inner, err := distlabel.Build(g, f, k, distlabel.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	return &DistLabels{inner: inner}, nil
}

// Estimate returns a distance estimate for s,t under the fault set,
// satisfying dist <= estimate <= (8k-2)(|F|+1) * dist w.h.p., or
// Unreachable.
func (d *DistLabels) Estimate(s, t int32, faults []EdgeID) (int64, error) {
	g := d.inner.Graph()
	if err := checkQuery(g, s, t, faults); err != nil {
		return 0, err
	}
	if err := d.inner.Hierarchy().CheckHeld(s, t); err != nil {
		return 0, err
	}
	// A fault outside a partial scheme's components has an empty label: it
	// cuts nothing, and |F| counts it by id as the whole scheme does.
	fl := make([]distlabel.EdgeLabel, len(faults))
	for i, id := range faults {
		fl[i] = d.inner.EdgeLabel(id)
	}
	nf := distlabel.DistinctFaults(g, faults, d.inner.Scales())
	return d.inner.DecodeCount(d.inner.VertexLabel(s), d.inner.VertexLabel(t), fl, nf)
}

// Graph returns the labeled graph.
func (d *DistLabels) Graph() *Graph { return d.inner.Graph() }

// FaultBound returns the fault bound f the labels were built for.
func (d *DistLabels) FaultBound() int { return d.inner.F() }

// VertexLabelBits returns the per-vertex label size in bits. A partial
// (shard) scheme panics for a vertex it does not hold, with the error its
// queries return for such an endpoint.
func (d *DistLabels) VertexLabelBits(v int32) int {
	mustHold(d.inner.Hierarchy().CheckHeld(v, v))
	return d.inner.VertexLabelBits(v)
}

// EdgeLabelBits returns the per-edge label size in bits. A partial (shard)
// scheme panics like VertexLabelBits for an edge of a component it does
// not hold.
func (d *DistLabels) EdgeLabelBits(e EdgeID) int {
	u := d.inner.Graph().Edge(e).U
	mustHold(d.inner.Hierarchy().CheckHeld(u, u))
	return d.inner.EdgeLabelBits(e)
}

// StretchBound returns (8k-2)(|F|+1).
func (d *DistLabels) StretchBound(numFaults int) int64 { return d.inner.StretchBound(numFaults) }

// Router is a preprocessed FT compact routing scheme (Theorems 5.3/5.8).
type Router struct {
	inner *route.Router
}

// RouterOptions configures NewRouter.
type RouterOptions struct {
	Seed uint64
	// Balanced enables the Γ-load-balanced tables of Claim 5.7, bounding
	// every individual table by Õ(f^3 n^{1/k}) bits.
	Balanced bool
	// Parallelism bounds the worker goroutines used during preprocessing:
	// 0 uses GOMAXPROCS, 1 builds sequentially. Tables and labels are
	// bit-identical at any parallelism for a fixed seed.
	Parallelism int
}

// RouteResult reports one routing simulation (cost, optimum, stretch,
// header bits, detections...).
type RouteResult = route.Result

// NewRouter preprocesses g for fault bound f and stretch parameter k.
func NewRouter(g *Graph, f, k int, opts RouterOptions) (*Router, error) {
	inner, err := route.Build(g, f, k, route.Options{Seed: opts.Seed, Balanced: opts.Balanced, Parallelism: opts.Parallelism})
	if err != nil {
		return nil, err
	}
	return &Router{inner: inner}, nil
}

// Route delivers a message from s to t under an unknown fault set
// (Theorem 5.8): stretch at most 32k(|F|+1)^2 w.h.p. for |F| <= f.
func (r *Router) Route(s, t int32, faults EdgeSet) (RouteResult, error) {
	if err := checkQuery(r.inner.Graph(), s, t, CanonicalFaults(faults.Slice())); err != nil {
		return RouteResult{}, err
	}
	return r.inner.RouteFT(s, t, faults)
}

// RouteForbidden delivers under known faults (Theorem 5.3): stretch at
// most (8k-2)(|F|+1) w.h.p.
func (r *Router) RouteForbidden(s, t int32, faults []EdgeID) (RouteResult, error) {
	if err := checkQuery(r.inner.Graph(), s, t, faults); err != nil {
		return RouteResult{}, err
	}
	return r.inner.RouteForbidden(s, t, faults)
}

// Graph returns the preprocessed graph.
func (r *Router) Graph() *Graph { return r.inner.Graph() }

// FaultBound returns the fault bound f the router was built for.
func (r *Router) FaultBound() int { return r.inner.F() }

// MaxTableBits returns the largest per-vertex routing table in bits.
func (r *Router) MaxTableBits() int { return r.inner.MaxTableBits() }

// TotalTableBits returns the global routing table space in bits.
func (r *Router) TotalTableBits() int64 { return r.inner.TotalTableBits() }

// LabelBits returns the routing label size of a vertex in bits. A partial
// (shard) router panics for a vertex it does not hold, with the error its
// routes return for such an endpoint.
func (r *Router) LabelBits(v int32) int {
	mustHold(r.inner.Hierarchy().CheckHeld(v, v))
	return r.inner.LabelBits(v)
}

// StretchBoundFT returns 32k(|F|+1)^2.
func (r *Router) StretchBoundFT(numFaults int) int64 { return r.inner.StretchBoundFT(numFaults) }

// StretchBoundForbidden returns (8k-2)(|F|+1).
func (r *Router) StretchBoundForbidden(numFaults int) int64 {
	return r.inner.StretchBoundForbidden(numFaults)
}
