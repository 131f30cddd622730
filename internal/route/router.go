// Package route implements the compact routing schemes of Section 5 on a
// simulated message-passing network:
//
//   - forbidden-set routing (Section 5.1, Theorem 5.3), where the faulty
//     edges' labels are known to the source, with stretch
//     (8k-2)(|F|+1);
//
//   - fault-tolerant routing (Section 5.2, Theorems 5.5/5.8), where faults
//     are discovered by bumping into them, with stretch 32k(|F|+1)^2,
//     using f' = f+1 independent connectivity-label copies, per-phase
//     trial-and-error iterations, and either naive tables (every vertex
//     stores its incident tree edges' labels; global space Õ(f n^{1+1/k}))
//     or the Γ-load-balanced tables of Claims 5.6/5.7 (per-vertex space
//     Õ(f^3 n^{1/k})).
//
// The simulator charges exactly the costs the paper's stretch analysis
// charges: traversed edge weights, the reverse walk to the source after a
// detection, and 2·w(u,w) per Γ probe.
package route

import (
	"fmt"
	"sync"

	"ftrouting/internal/ancestry"
	"ftrouting/internal/core"
	"ftrouting/internal/graph"
	"ftrouting/internal/parallel"
	"ftrouting/internal/sketch"
	"ftrouting/internal/treecover"
	"ftrouting/internal/treeroute"
	"ftrouting/internal/xrand"
)

// Options configures Build.
type Options struct {
	Seed uint64
	// Params overrides per-instance sketch sizing (zero = automatic).
	Params sketch.Params
	// Balanced enables the Γ-load-balanced tables of Claim 5.6/5.7.
	Balanced bool
	// Parallelism bounds the worker goroutines used during preprocessing
	// (per-instance builds, per-vertex label encoding, table accounting):
	// 0 uses GOMAXPROCS, 1 builds sequentially. Instance seeds are
	// derived from (scale, cluster), so the preprocessed scheme is
	// bit-identical at any parallelism.
	Parallelism int
}

// Instance couples one tree-cover cluster with its tree-routing scheme and
// its f'-copy connectivity labeling (routing layout: ports + tree labels
// inside extended identifiers).
type Instance struct {
	Scale   int
	Index   int32
	Cluster *treecover.Cluster
	TR      *treeroute.Scheme
	Codec   treeroute.Codec
	Conn    *core.SketchScheme
}

// Router holds the preprocessed routing scheme of a graph (the
// "preprocessing algorithm" of Section 2).
type Router struct {
	g    *graph.Graph
	f, k int
	opts Options
	hier *treecover.Hierarchy
	inst [][]*Instance
	// scratch pools routeScratch values so warm route walks perform zero
	// heap allocations.
	scratch sync.Pool
}

// routeScratch is the per-goroutine scratch of one route simulation: the
// point-to-point Dijkstra state behind the Opt field, the reusable succinct
// path of the prepared decode, the walker's decoded target label and its
// visited-vertex buffer.
type routeScratch struct {
	sp      graph.SPScratch
	path    core.SuccinctPath
	target  treeroute.Label
	visited []int32
}

// getScratch returns a pooled scratch (or a fresh one when the pool is
// empty); return it with r.scratch.Put.
func (r *Router) getScratch() *routeScratch {
	if sc, _ := r.scratch.Get().(*routeScratch); sc != nil {
		return sc
	}
	return new(routeScratch)
}

// Build preprocesses the graph for fault bound f and stretch parameter k.
func Build(g *graph.Graph, f, k int, opts Options) (*Router, error) {
	if f < 0 || k < 1 {
		return nil, fmt.Errorf("route: need f >= 0 and k >= 1, got %d, %d", f, k)
	}
	hier, err := treecover.BuildHierarchyP(g, k, opts.Parallelism)
	if err != nil {
		return nil, err
	}
	return BuildWithHierarchy(g, f, k, opts, hier)
}

// BuildWithHierarchy preprocesses on a prebuilt tree-cover hierarchy of
// g. The hierarchy carries every graph-search product of preprocessing;
// tree-routing schemes and the f'-copy connectivity labelings are
// re-derived from the seed in linear time, so loading a persisted router
// goes through here. For equal inputs the result is bit-identical to
// Build's.
func BuildWithHierarchy(g *graph.Graph, f, k int, opts Options, hier *treecover.Hierarchy) (*Router, error) {
	if f < 0 || k < 1 {
		return nil, fmt.Errorf("route: need f >= 0 and k >= 1, got %d, %d", f, k)
	}
	gammaF := 0
	if opts.Balanced {
		gammaF = f
	}
	// Seeds depend only on (scale, cluster).
	inst, err := treecover.BuildInstances(hier, opts.Parallelism, func(i, j int, cl *treecover.Cluster, workers int) (*Instance, error) {
		inst, err := buildInstance(g, i, int32(j), cl, f, gammaF, workers, opts)
		if err != nil {
			return nil, fmt.Errorf("route: instance (%d,%d): %w", i, j, err)
		}
		return inst, nil
	})
	if err != nil {
		return nil, err
	}
	return &Router{g: g, f: f, k: k, opts: opts, hier: hier, inst: inst}, nil
}

// buildInstance builds one (scale, cluster) instance; parallelism bounds
// the workers of its per-vertex and per-copy inner loops (the caller has
// already divided the global budget across concurrent instance builds).
func buildInstance(g *graph.Graph, scale int, idx int32, cl *treecover.Cluster, f, gammaF, parallelism int, opts Options) (*Instance, error) {
	// Ancestry labels must agree between tree routing and the connectivity
	// scheme; ancestry.Build is deterministic on the tree, so building
	// twice yields identical labels (asserted in tests).
	anc := ancestry.Build(cl.Tree)
	portOf := func(le graph.EdgeID, at int32) int32 { return cl.Sub.PortIn(g, le, at) }
	tr, err := treeroute.Build(cl.Tree, anc, portOf, gammaF)
	if err != nil {
		return nil, err
	}
	codec := tr.NewCodec()
	// Pre-encode every vertex's tree-routing label; Encode validates port
	// widths, so errors surface at preprocessing time. Encoding is pure
	// per vertex, so the assembly fans out across vertices on this
	// instance's share of the worker budget.
	encoded, err := parallel.Map(parallelism, cl.Sub.Local.N(), func(v int) ([]uint64, error) {
		return codec.Encode(tr.Label(int32(v)))
	})
	if err != nil {
		return nil, err
	}
	conn, err := core.BuildSketch(cl.Sub.Local, cl.Tree, core.SketchOptions{
		Copies:      f + 1,
		Seed:        xrand.DeriveSeed(opts.Seed, 0x70, uint64(scale), uint64(idx)),
		Params:      opts.Params,
		PortOf:      portOf,
		ExtraOf:     func(v int32) []uint64 { return encoded[v] },
		ExtraWords:  codec.Words(),
		Parallelism: parallelism,
	})
	if err != nil {
		return nil, err
	}
	return &Instance{Scale: scale, Index: idx, Cluster: cl, TR: tr, Codec: codec, Conn: conn}, nil
}

// F returns the fault bound.
func (r *Router) F() int { return r.f }

// K returns the stretch parameter.
func (r *Router) K() int { return r.k }

// Options returns the build options.
func (r *Router) Options() Options { return r.opts }

// Graph returns the routed graph.
func (r *Router) Graph() *graph.Graph { return r.g }

// Hierarchy returns the tree-cover hierarchy the router is built on.
func (r *Router) Hierarchy() *treecover.Hierarchy { return r.hier }

// Scales returns the number of distance scales K+1.
func (r *Router) Scales() int { return len(r.inst) }

// Instance returns instance (scale, cluster).
func (r *Router) Instance(scale int, cluster int32) *Instance { return r.inst[scale][cluster] }

// Label is the routing label L_route(t) of Eq. (8): per scale, the home
// cluster index i*(t) and t's connectivity vertex label in that instance.
type Label struct {
	Global  int32
	Home    []int32
	Entries []core.SketchVertexLabel // Entries[i] is t's label in instance (i, Home[i])
}

// Label assembles L_route(t).
func (r *Router) Label(t int32) Label {
	l := Label{Global: t, Home: make([]int32, len(r.inst)), Entries: make([]core.SketchVertexLabel, len(r.inst))}
	for i := range r.inst {
		j := r.hier.Home(i, t)
		l.Home[i] = j
		inst := r.inst[i][j]
		lt, _ := inst.Cluster.Sub.LocalVertex(t)
		l.Entries[i] = inst.Conn.VertexLabel(lt)
	}
	return l
}

// LabelBits returns the routing label size in bits (paper: Õ(f); the tree
// label payload carried inside the connectivity label dominates).
func (r *Router) LabelBits(t int32) int {
	l := r.Label(t)
	bits := 0
	for i, e := range l.Entries {
		inst := r.inst[i][l.Home[i]]
		bits += e.BitLen(inst.Cluster.Sub.Local.N()) + 32 // plus home index
	}
	return bits
}

// connEdgeLabelBits is the size of one connectivity edge label (one copy):
// extended id plus, for tree edges, three sketches and the seeds.
func connEdgeLabelBits(inst *Instance, isTree bool) int {
	bits := inst.Conn.Layout().Bits()
	if isTree {
		bits += 3*sketchBits(inst) + 2*64
	}
	return bits
}

// sketchBits is the size of one sketch of the instance.
func sketchBits(inst *Instance) int {
	p := inst.Conn.Params()
	return p.Units * p.Levels * inst.Conn.Layout().Bits()
}

// routingEdgeLabelBits is the size of L_route,i,j(e) (Eq. 7): f' copies of
// the connectivity label for tree edges, one extended id for non-tree.
func routingEdgeLabelBits(inst *Instance, isTree bool, copies int) int {
	if !isTree {
		return inst.Conn.Layout().Bits()
	}
	return copies * connEdgeLabelBits(inst, true)
}

// TableBits returns the routing table size of vertex v in bits (Eq. 9 for
// the naive placement; the Claim 5.7 placement when Balanced). This is the
// quantity Theorem 5.8 bounds by Õ(f^3 n^{1/k} log(nW)).
func (r *Router) TableBits(v int32) int {
	bits := 0
	copies := r.f + 1
	for i := range r.inst {
		for _, inst := range r.inst[i] {
			if inst == nil {
				continue // foreign shard's instance of a partial router
			}
			lv, ok := inst.Cluster.Sub.LocalVertex(v)
			if !ok {
				continue
			}
			n := inst.Cluster.Sub.Local.N()
			bits += inst.Conn.VertexLabel(lv).BitLen(n) // ConnLabel^1 of v
			tree := inst.Cluster.Tree
			if r.opts.Balanced {
				bits += inst.TR.Table(lv).BitLen(n) // R_T(v) of Claim 5.6
				// Edges whose Γ set contains v.
				for le := graph.EdgeID(0); int(le) < inst.Cluster.Sub.Local.M(); le++ {
					if !tree.InTree[le] {
						continue
					}
					for _, w := range inst.TR.GammaVertices(le) {
						if w == lv {
							bits += routingEdgeLabelBits(inst, true, copies)
							break
						}
					}
				}
			} else {
				bits += inst.TR.Table(lv).BitLen(n)
				// All incident tree edges.
				for _, a := range inst.Cluster.Sub.Local.Adj(lv) {
					if tree.InTree[a.E] {
						bits += routingEdgeLabelBits(inst, true, copies)
					}
				}
			}
		}
	}
	return bits
}

// tableBitsPerVertex computes TableBits for every vertex concurrently
// (the accounting walks every instance containing the vertex, which makes
// the whole-graph aggregates below quadratic-ish and worth fanning out).
func (r *Router) tableBitsPerVertex() []int {
	bits, _ := parallel.Map(r.opts.Parallelism, r.g.N(), func(v int) (int, error) {
		return r.TableBits(int32(v)), nil
	})
	return bits
}

// MaxTableBits returns the largest per-vertex table.
func (r *Router) MaxTableBits() int {
	max := 0
	for _, b := range r.tableBitsPerVertex() {
		if b > max {
			max = b
		}
	}
	return max
}

// TotalTableBits returns the global space (Theorem 5.5's Õ(f n^{1+1/k})).
func (r *Router) TotalTableBits() int64 {
	var total int64
	for _, b := range r.tableBitsPerVertex() {
		total += int64(b)
	}
	return total
}

// storesEdgeLabel reports whether, under the current table placement, the
// vertex with local id lv holds the routing label of local tree edge le in
// inst. Used by the simulator to decide when Γ probes are necessary.
func (r *Router) storesEdgeLabel(inst *Instance, lv int32, le graph.EdgeID) bool {
	if !r.opts.Balanced {
		e := inst.Cluster.Sub.Local.Edge(le)
		return e.U == lv || e.V == lv
	}
	for _, w := range inst.TR.GammaVertices(le) {
		if w == lv {
			return true
		}
	}
	return false
}
