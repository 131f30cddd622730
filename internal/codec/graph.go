package codec

import (
	"encoding/binary"
	"fmt"

	"ftrouting/internal/graph"
)

// Graph section:
//
//	n Count, m Count, then m x (U i32, V i32, W i64)
//
// Ports are not stored: edges are written in EdgeID order, and
// graph.FromEdges assigns ports in that order exactly as AddEdge did, so
// the decoded graph reproduces the original's ports and adjacency lists
// bit-identically.

// Record widths of the bulk-read graph and tree sections.
const (
	edgeRecord = 16 // u i32, v i32, w i64
	treeRecord = 12 // v i32, parent i32, parentEdge i32
)

// EncodeGraph writes g as a section of w.
func EncodeGraph(w *Writer, g *graph.Graph) {
	w.Count(g.N())
	w.Count(g.M())
	for _, e := range g.Edges() {
		w.I32(e.U)
		w.I32(e.V)
		w.I64(e.W)
	}
}

// DecodeGraph reads a graph section. Structural violations (endpoints out
// of range, self-loops, non-positive weights) are ErrCorrupt. Edges are
// read a chunk at a time, so the edge list grows with the bytes actually
// read, never from the declared count alone; the graph is then built in
// bulk (graph.FromEdges).
func DecodeGraph(r *Reader) (*graph.Graph, error) {
	n := r.Count(MaxGraphVertices)
	m := r.Count(MaxElems)
	if r.Err() != nil {
		return nil, r.Err()
	}
	var edges []graph.Edge
	for len(edges) < m {
		k := min(m-len(edges), readChunk)
		p := r.chunk(k, edgeRecord)
		if p == nil {
			return nil, r.Err()
		}
		edges = grow(edges, k, m)
		for ; len(p) > 0; p = p[edgeRecord:] {
			edges = append(edges, graph.Edge{
				U: int32(binary.LittleEndian.Uint32(p)),
				V: int32(binary.LittleEndian.Uint32(p[4:])),
				W: int64(binary.LittleEndian.Uint64(p[8:])),
			})
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return g, nil
}

// Tree section (relative to a known graph):
//
//	root i32, size Count, then size x (v i32, parent i32, parentEdge i32)
//
// Vertices appear in the tree's Order (parents before children), which is
// itself part of the structure: ancestry labels and tree-routing labels
// depend on it.

// EncodeTree writes t as a section of w.
func EncodeTree(w *Writer, t *graph.Tree) {
	w.I32(t.Root)
	w.Count(len(t.Order))
	for _, v := range t.Order {
		w.I32(v)
		w.I32(t.Parent[v])
		w.I32(t.ParentEdge[v])
	}
}

// DecodeTree reads a tree section of g.
func DecodeTree(r *Reader, g *graph.Graph) (*graph.Tree, error) {
	root := r.I32()
	size := r.Count(g.N())
	if r.Err() != nil {
		return nil, r.Err()
	}
	n := g.N()
	parent := make([]int32, n)
	parentEdge := make([]graph.EdgeID, n)
	for i := range parent {
		parent[i] = -1
		parentEdge[i] = -1
	}
	order := make([]int32, 0, size)
	for len(order) < size {
		p := r.chunk(min(size-len(order), readChunk), treeRecord)
		if p == nil {
			return nil, r.Err()
		}
		for ; len(p) > 0; p = p[treeRecord:] {
			v := int32(binary.LittleEndian.Uint32(p))
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("%w: tree vertex %d out of range", ErrCorrupt, v)
			}
			order = append(order, v)
			parent[v] = int32(binary.LittleEndian.Uint32(p[4:]))
			parentEdge[v] = int32(binary.LittleEndian.Uint32(p[8:]))
		}
	}
	t, err := graph.NewTreeFromParts(g, root, parent, parentEdge, order)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return t, nil
}

// Subgraph section (relative to a known parent graph):
//
//	nv Count, nv x i32 (global vertices, strictly ascending)
//	ne Count, ne x i32 (global edges, strictly ascending)
//
// The local graph and local ports are re-derived;
// weights come from the parent graph.

// EncodeSubgraph writes s as a section of w.
func EncodeSubgraph(w *Writer, s *graph.Subgraph) {
	w.I32s(s.ToGlobal)
	w.I32s(s.EdgeToGlobal)
}

// DecodeSubgraph reads a subgraph section of parent.
func DecodeSubgraph(r *Reader, parent *graph.Graph) (*graph.Subgraph, error) {
	toGlobal := r.I32s(parent.N())
	edgeToGlobal := r.I32s(parent.M())
	if r.Err() != nil {
		return nil, r.Err()
	}
	sub, err := graph.SubgraphFromParts(parent, toGlobal, edgeToGlobal)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return sub, nil
}
