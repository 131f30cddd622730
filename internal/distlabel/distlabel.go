// Package distlabel implements the fault-tolerant approximate distance
// labels of Section 4 (Theorem 1.4): the [CLPR12]-style transformation of
// FT connectivity labels into distance labels via tree covers.
//
// For every scale i = 0..K (radius 2^i) and every tree T_{i,j} of the
// cover, the sketch-based connectivity scheme is applied to the instance
// G_{i,j} (the cluster's induced light-edge subgraph) with spanning tree
// T_{i,j}. A vertex's label is the bundle of its connectivity labels in all
// instances containing it plus its home-cluster index i*(v) per scale; an
// edge's label is the bundle of its connectivity labels. The decoder scans
// scales bottom-up, runs the connectivity decoder in the home instance of
// s, and returns (4k-1)(|F|+1)·2^i for the first connected scale — the
// paper's estimate, satisfying
//
//	dist_{G\F}(s,t) <= estimate <= (8k-2)(|F|+1) * dist_{G\F}(s,t).
package distlabel

import (
	"fmt"
	"sort"

	"ftrouting/internal/core"
	"ftrouting/internal/graph"
	"ftrouting/internal/parallel"
	"ftrouting/internal/sketch"
	"ftrouting/internal/treecover"
	"ftrouting/internal/xrand"
)

// Options configures Build.
type Options struct {
	Seed uint64
	// Params overrides per-instance sketch sizing (zero = automatic).
	Params sketch.Params
	// Parallelism bounds the worker goroutines used to build the
	// per-(scale, cluster) connectivity instances: 0 uses GOMAXPROCS, 1
	// builds sequentially. Instance seeds are derived from (scale,
	// cluster), so labels are bit-identical at any parallelism.
	Parallelism int
}

// Instance is one (scale, cluster) connectivity labeling.
type Instance struct {
	Scale   int
	Cluster *treecover.Cluster
	Conn    *core.SketchScheme
}

// Scheme holds the full distance labeling of a graph.
type Scheme struct {
	g    *graph.Graph
	f, k int
	opts Options
	hier *treecover.Hierarchy
	inst [][]*Instance // [scale][cluster]
}

// Build constructs the labeling for fault bound f and stretch parameter k.
func Build(g *graph.Graph, f, k int, opts Options) (*Scheme, error) {
	if f < 0 || k < 1 {
		return nil, fmt.Errorf("distlabel: need f >= 0 and k >= 1, got %d, %d", f, k)
	}
	hier, err := treecover.BuildHierarchyP(g, k, opts.Parallelism)
	if err != nil {
		return nil, err
	}
	return BuildWithHierarchy(g, f, k, opts, hier)
}

// BuildWithHierarchy constructs the labeling on a prebuilt tree-cover
// hierarchy of g. The hierarchy is the only output of preprocessing that
// involves graph searches; everything else (per-instance connectivity
// labelings) is re-derived from the seed in linear time, so loading a
// persisted scheme goes through here. For equal (g, f, k, opts, hier)
// the result is bit-identical to Build's.
func BuildWithHierarchy(g *graph.Graph, f, k int, opts Options, hier *treecover.Hierarchy) (*Scheme, error) {
	if f < 0 || k < 1 {
		return nil, fmt.Errorf("distlabel: need f >= 0 and k >= 1, got %d, %d", f, k)
	}
	s := &Scheme{g: g, f: f, k: k, hier: hier, opts: opts}
	// Instances are independent across scales and clusters; flatten the
	// (scale, cluster) grid so large clusters of one scale do not
	// serialize behind another scale's row. Each instance's seed depends
	// only on its (i, j) coordinates, never on build order.
	type coord struct {
		i, j int
	}
	var coords []coord
	for i, cover := range hier.Scales {
		s.inst = append(s.inst, make([]*Instance, len(cover.Clusters)))
		for j, cl := range cover.Clusters {
			// A nil cluster slot marks an instance that lives in another
			// shard of a partial (sharded) hierarchy; its slot stays to keep
			// global (scale, cluster) indices — and hence instance seeds —
			// stable, but nothing is built for it.
			if cl == nil {
				continue
			}
			coords = append(coords, coord{i, j})
		}
	}
	err := parallel.ForEach(opts.Parallelism, len(coords), func(idx int) error {
		i, j := coords[idx].i, coords[idx].j
		cl := hier.Scales[i].Clusters[j]
		conn, err := core.BuildSketch(cl.Sub.Local, cl.Tree, core.SketchOptions{
			Seed:   xrand.DeriveSeed(opts.Seed, uint64(i), uint64(j)),
			Params: opts.Params,
		})
		if err != nil {
			return fmt.Errorf("distlabel: instance (%d,%d): %w", i, j, err)
		}
		s.inst[i][j] = &Instance{Scale: i, Cluster: cl, Conn: conn}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Scales returns K+1, the number of distance scales.
func (s *Scheme) Scales() int { return len(s.inst) }

// K returns the stretch parameter.
func (s *Scheme) K() int { return s.k }

// F returns the fault bound.
func (s *Scheme) F() int { return s.f }

// Options returns the build options.
func (s *Scheme) Options() Options { return s.opts }

// Graph returns the labeled graph.
func (s *Scheme) Graph() *graph.Graph { return s.g }

// Hierarchy returns the tree-cover hierarchy the scheme is built on.
func (s *Scheme) Hierarchy() *treecover.Hierarchy { return s.hier }

// Instances returns the instance row of one scale (for experiments).
func (s *Scheme) Instances(scale int) []*Instance { return s.inst[scale] }

// VEntry is one per-instance connectivity vertex label inside a distance
// label.
type VEntry struct {
	Scale   int
	Cluster int32
	L       core.SketchVertexLabel
}

// VertexLabel is DistLabel(u) of Section 4.
type VertexLabel struct {
	Global  int32
	Home    []int32 // i*(u) per scale
	Entries []VEntry
}

// EEntry is one per-instance connectivity edge label inside a distance
// label.
type EEntry struct {
	Scale   int
	Cluster int32
	L       core.SketchEdgeLabel
}

// EdgeLabel is DistLabel(e) of Section 4.
type EdgeLabel struct {
	Entries []EEntry
}

// VertexLabel assembles DistLabel(u).
func (s *Scheme) VertexLabel(u int32) VertexLabel {
	l := VertexLabel{Global: u, Home: make([]int32, len(s.inst))}
	for i, cover := range s.hier.Scales {
		l.Home[i] = cover.Home[u]
		for j, cl := range cover.Clusters {
			if cl == nil {
				continue // foreign shard's instance; cannot contain u
			}
			if lu, ok := cl.Sub.LocalVertex(u); ok {
				l.Entries = append(l.Entries, VEntry{Scale: i, Cluster: int32(j), L: s.inst[i][j].Conn.VertexLabel(lu)})
			}
		}
	}
	return l
}

// EdgeLabel assembles DistLabel(e). Every instance containing e contains
// its endpoint U (instances are induced subgraphs), so only the instances
// of U's vertex label are searched for e; entries come out in the (scale,
// cluster) order of a scan of every cluster.
func (s *Scheme) EdgeLabel(e graph.EdgeID) EdgeLabel {
	var l EdgeLabel
	for _, ve := range s.VertexLabel(s.g.Edge(e).U).Entries {
		inst := s.inst[ve.Scale][ve.Cluster]
		if le, ok := inst.Cluster.Sub.LocalEdge(e); ok {
			l.Entries = append(l.Entries, EEntry{Scale: ve.Scale, Cluster: ve.Cluster, L: inst.Conn.EdgeLabel(le)})
		}
	}
	return l
}

// find returns the entry of instance (scale, cluster), if any. Entries are
// generated in (scale, cluster) order, so binary search applies.
func (l VertexLabel) find(scale int, cluster int32) (core.SketchVertexLabel, bool) {
	idx := sort.Search(len(l.Entries), func(i int) bool {
		e := l.Entries[i]
		return e.Scale > scale || (e.Scale == scale && e.Cluster >= cluster)
	})
	if idx < len(l.Entries) && l.Entries[idx].Scale == scale && l.Entries[idx].Cluster == cluster {
		return l.Entries[idx].L, true
	}
	return core.SketchVertexLabel{}, false
}

// Unreachable is returned when no scale connects s and t (they are
// disconnected in G\F).
const Unreachable = int64(graph.Inf)

// Decode returns the distance estimate delta(s,t,F) of Section 4, or
// Unreachable. The fault set is given by the edges' distance labels; |F| in
// the estimate counts the distinct queried edges, matching the theorem
// statement.
func (s *Scheme) Decode(sl, tl VertexLabel, faults []EdgeLabel) (int64, error) {
	return s.DecodeCount(sl, tl, faults, countDistinct(faults))
}

// DecodeCount is Decode with the |F| of the estimate given by the caller:
// DistinctFaults of the fault ids, as PrepareFaults takes it, since a
// partial (shard) scheme's label of a foreign fault edge is empty.
func (s *Scheme) DecodeCount(sl, tl VertexLabel, faults []EdgeLabel, nf int) (int64, error) {
	if sl.Global == tl.Global {
		return 0, nil
	}
	for i := range s.inst {
		j := sl.Home[i]
		if j < 0 {
			continue
		}
		tEntry, ok := tl.find(i, j)
		if !ok {
			continue // t outside the 2^i-ball instance of s
		}
		sEntry, ok := sl.find(i, j)
		if !ok {
			return 0, fmt.Errorf("distlabel: vertex %d missing from its own home instance (%d,%d)", sl.Global, i, j)
		}
		var fl []core.SketchEdgeLabel
		for _, f := range faults {
			for _, e := range f.Entries {
				if e.Scale == i && e.Cluster == j {
					fl = append(fl, e.L)
				}
			}
		}
		v, err := s.inst[i][j].Conn.Decode(sEntry, tEntry, fl, 0, false)
		if err != nil {
			return 0, err
		}
		if v.Connected {
			return int64(4*s.k-1) * int64(nf+1) * (int64(1) << uint(i)), nil
		}
	}
	return Unreachable, nil
}

// countDistinct counts distinct global edges among the fault labels, using
// the UID of each label's first entry as identity.
func countDistinct(faults []EdgeLabel) int {
	type key struct {
		scale   int
		cluster int32
		uid     uint64
	}
	seen := make(map[key]bool, len(faults))
	n := 0
	for _, f := range faults {
		if len(f.Entries) == 0 {
			n++ // edge in no instance still counts as a queried fault
			continue
		}
		e := f.Entries[0]
		k := key{scale: e.Scale, cluster: e.Cluster, uid: e.L.Fields().UID}
		if !seen[k] {
			seen[k] = true
			n++
		}
	}
	return n
}

// DistinctFaults returns, from edge ids alone, the |F| that Decode derives
// from the ids' fault labels (countDistinct) on a labeling of g with the
// given number of scales: an edge that lies in some instance counts once
// however often it is listed, and every listing of an edge in no instance
// counts separately. An edge lies in some instance iff its weight is at
// most the top-scale radius 2^K: the top-scale home cluster spans its
// whole component and keeps every edge up to that radius. So the count
// needs no labels, and a shard planner gets the global count without
// assembling any foreign shard's labels.
func DistinctFaults(g *graph.Graph, ids []graph.EdgeID, scales int) int {
	top := int64(1) << uint(scales-1) // the top-scale radius 2^K
	seen := make(map[graph.EdgeID]bool, len(ids))
	n := 0
	for _, id := range ids {
		if g.Edge(id).W > top {
			n++
			continue
		}
		if !seen[id] {
			seen[id] = true
			n++
		}
	}
	return n
}

// VertexLabelBits returns the label size in bits under the paper's
// accounting (sum of per-instance connectivity labels plus the home
// indices).
func (s *Scheme) VertexLabelBits(u int32) int {
	l := s.VertexLabel(u)
	bits := 0
	for _, e := range l.Entries {
		n := s.inst[e.Scale][e.Cluster].Cluster.Sub.Local.N()
		bits += e.L.BitLen(n) + 32 // plus the (i,j) tag
	}
	bits += 32 * len(l.Home)
	return bits
}

// EdgeLabelBits returns the edge label size in bits.
func (s *Scheme) EdgeLabelBits(e graph.EdgeID) int {
	l := s.EdgeLabel(e)
	bits := 0
	for _, en := range l.Entries {
		bits += en.L.BitLen() + 32
	}
	return bits
}

// StretchBound returns the guaranteed stretch (8k-2)(|F|+1) for a fault
// count.
func (s *Scheme) StretchBound(numFaults int) int64 {
	return int64(8*s.k-2) * int64(numFaults+1)
}
