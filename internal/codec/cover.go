package codec

import (
	"fmt"

	"ftrouting/internal/graph"
	"ftrouting/internal/treecover"
)

// Tree-cover hierarchy section (relative to a known graph):
//
//	numScales Count
//	per scale: rho i64, k i32, home []i32 (one per graph vertex),
//	           numClusters Count,
//	           per cluster: center i32, radius i64, subgraph, tree
//
// Cluster subgraphs are induced subgraphs of the graph; cluster trees
// live on the cluster's local graph and are rooted at the local id of the
// center. This is the entire output of treecover.BuildHierarchy — the
// dominant preprocessing cost of the distance and routing schemes — so a
// decoded hierarchy makes rebuilding the per-instance labelings a
// linear-time, seed-driven step.

// maxScales bounds the scale count: 2^i must fit an int64 radius, so more
// than 63 scales cannot arise from a real build (nor fewer than one).
const maxScales = 64

// EncodeHierarchy writes h as a section of w.
func EncodeHierarchy(w *Writer, h *treecover.Hierarchy) {
	w.Count(len(h.Scales))
	for _, cover := range h.Scales {
		w.I64(cover.Rho)
		w.I32(int32(cover.K))
		w.I32s(cover.Home)
		w.Count(len(cover.Clusters))
		for _, cl := range cover.Clusters {
			EncodeCluster(w, cl)
		}
	}
}

// DecodeHierarchy reads a hierarchy section of g.
func DecodeHierarchy(r *Reader, g *graph.Graph) (*treecover.Hierarchy, error) {
	numScales := r.Count(maxScales)
	if r.Err() != nil {
		return nil, r.Err()
	}
	if numScales < 1 {
		return nil, fmt.Errorf("%w: hierarchy has no scales", ErrCorrupt)
	}
	h := &treecover.Hierarchy{G: g, K: numScales - 1}
	for i := 0; i < numScales; i++ {
		cover, err := decodeCover(r, g)
		if err != nil {
			return nil, fmt.Errorf("scale %d: %w", i, err)
		}
		h.Scales = append(h.Scales, cover)
	}
	return h, nil
}

func decodeCover(r *Reader, g *graph.Graph) (*treecover.Cover, error) {
	rho := r.I64()
	k := r.I32()
	home := r.I32s(g.N())
	numClusters := r.Count(MaxElems)
	if r.Err() != nil {
		return nil, r.Err()
	}
	if rho < 1 || k < 1 {
		return nil, fmt.Errorf("%w: cover rho=%d k=%d", ErrCorrupt, rho, k)
	}
	if len(home) != g.N() {
		return nil, fmt.Errorf("%w: cover home lists %d of %d vertices", ErrCorrupt, len(home), g.N())
	}
	c := &treecover.Cover{Rho: rho, K: int(k), Home: home}
	for j := 0; j < numClusters; j++ {
		cl, err := DecodeCluster(r, g)
		if err != nil {
			return nil, fmt.Errorf("cluster %d: %w", j, err)
		}
		c.Clusters = append(c.Clusters, cl)
	}
	for v, j := range home {
		if j < 0 || int(j) >= len(c.Clusters) {
			return nil, fmt.Errorf("%w: home cluster %d of vertex %d out of range", ErrCorrupt, j, v)
		}
		if !c.Clusters[j].Sub.Contains(int32(v)) {
			return nil, fmt.Errorf("%w: vertex %d not in its home cluster %d", ErrCorrupt, v, j)
		}
	}
	return c, nil
}

// EncodeCluster writes one tree-cover cluster as a section of w. Shard
// files reuse this per-cluster section (tagged with the cluster's global
// index) so monolithic hierarchies and shard payloads decode through the
// same path.
func EncodeCluster(w *Writer, cl *treecover.Cluster) {
	w.I32(cl.Center)
	w.I64(cl.Radius)
	EncodeSubgraph(w, cl.Sub)
	EncodeTree(w, cl.Tree)
}

// DecodeCluster reads one cluster section of g (the counterpart of
// EncodeCluster).
func DecodeCluster(r *Reader, g *graph.Graph) (*treecover.Cluster, error) {
	center := r.I32()
	radius := r.I64()
	if r.Err() != nil {
		return nil, r.Err()
	}
	sub, err := DecodeSubgraph(r, g)
	if err != nil {
		return nil, err
	}
	tree, err := DecodeTree(r, sub.Local)
	if err != nil {
		return nil, err
	}
	localCenter, ok := sub.LocalVertex(center)
	if !ok {
		return nil, fmt.Errorf("%w: cluster center %d outside its subgraph", ErrCorrupt, center)
	}
	if tree.Root != localCenter {
		return nil, fmt.Errorf("%w: cluster tree rooted at %d, center is %d", ErrCorrupt, tree.Root, localCenter)
	}
	if tree.Size() != sub.Local.N() {
		return nil, fmt.Errorf("%w: cluster tree spans %d of %d vertices", ErrCorrupt, tree.Size(), sub.Local.N())
	}
	if radius < 0 {
		return nil, fmt.Errorf("%w: negative cluster radius", ErrCorrupt)
	}
	return &treecover.Cluster{Center: center, Sub: sub, Tree: tree, Radius: radius}, nil
}
