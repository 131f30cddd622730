package graph

import "fmt"

// This file reconstructs derived graph structures from their serialized
// parts (package internal/codec). Constructors validate exhaustively and
// return errors instead of panicking, because their inputs come off the
// wire: a Tree or Subgraph built here is structurally indistinguishable
// from one built by BFSTree/Dijkstra/Induced on the same data.

// NewTreeFromParts rebuilds a Tree of g from its root, parent pointers,
// parent edges and vertex order. order must list tree vertices with every
// parent before its children (the invariant BFS and Dijkstra orders
// satisfy); parent and parentEdge must be -1 outside the tree and at the
// root. Children order, depths and the tree-edge set are re-derived, so
// ancestry labels and every downstream labeling computed from the
// returned tree are bit-identical to the original's.
func NewTreeFromParts(g *Graph, root int32, parent []int32, parentEdge []EdgeID, order []int32) (*Tree, error) {
	n := int32(g.N())
	if len(parent) != int(n) || len(parentEdge) != int(n) {
		return nil, fmt.Errorf("graph: parent arrays sized %d,%d for %d vertices", len(parent), len(parentEdge), n)
	}
	if len(order) > int(n) {
		return nil, fmt.Errorf("graph: tree order lists %d of %d vertices", len(order), n)
	}
	if len(order) == 0 {
		if root != -1 {
			return nil, fmt.Errorf("graph: empty tree with root %d", root)
		}
		return newTree(g, -1, parent, parentEdge, nil), nil
	}
	if root < 0 || root >= n {
		return nil, fmt.Errorf("graph: tree root %d out of range", root)
	}
	if order[0] != root {
		return nil, fmt.Errorf("graph: tree order starts at %d, root is %d", order[0], root)
	}
	if parent[root] != -1 || parentEdge[root] != -1 {
		return nil, fmt.Errorf("graph: root %d has a parent", root)
	}
	seen := make([]bool, n)
	for i, v := range order {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("graph: tree order entry %d out of range", v)
		}
		if seen[v] {
			return nil, fmt.Errorf("graph: vertex %d repeats in tree order", v)
		}
		seen[v] = true
		if i == 0 {
			continue
		}
		p := parent[v]
		if p < 0 || p >= n || !seen[p] {
			return nil, fmt.Errorf("graph: vertex %d precedes its parent %d in tree order", v, p)
		}
		pe := parentEdge[v]
		if pe < 0 || int(pe) >= g.M() {
			return nil, fmt.Errorf("graph: parent edge %d of vertex %d out of range", pe, v)
		}
		e := g.Edge(pe)
		if !(e.U == v && e.V == p) && !(e.U == p && e.V == v) {
			return nil, fmt.Errorf("graph: parent edge %d does not join %d and %d", pe, v, p)
		}
	}
	for v := int32(0); v < n; v++ {
		if !seen[v] && (parent[v] != -1 || parentEdge[v] != -1) {
			return nil, fmt.Errorf("graph: vertex %d outside the tree has a parent", v)
		}
	}
	return newTree(g, root, parent, parentEdge, order), nil
}

// SubgraphFromParts rebuilds an induced Subgraph of g from its global
// vertex list and global edge list, both strictly ascending — the
// canonical order Induced produces, which fixes local ids and hence local
// ports bit-identically. Edge weights are taken from g. The subgraph
// takes ownership of both lists, and its local graph is built in bulk
// (FromEdges). Each edge endpoint is resolved with one load from a pooled
// dense index of the vertex list, so the rebuild is linear in the size of
// the subgraph.
func SubgraphFromParts(g *Graph, toGlobal []int32, edgeToGlobal []EdgeID) (*Subgraph, error) {
	idx, err := indexVertices(g, toGlobal)
	if err != nil {
		return nil, err
	}
	defer idx.release(toGlobal)
	return subgraphFromIndex(g, idx.loc, toGlobal, edgeToGlobal)
}

// subgraphFromIndex is SubgraphFromParts past the vertex check: loc is
// the dense index of toGlobal (indexVertices).
func subgraphFromIndex(g *Graph, loc, toGlobal []int32, edgeToGlobal []EdgeID) (*Subgraph, error) {
	edges := make([]Edge, len(edgeToGlobal))
	ge := g.Edges()
	prevE := EdgeID(-1)
	for i, id := range edgeToGlobal {
		if id < 0 || int(id) >= len(ge) {
			return nil, fmt.Errorf("graph: subgraph edge %d out of range", id)
		}
		if id <= prevE {
			return nil, fmt.Errorf("graph: subgraph edges not strictly ascending at %d", id)
		}
		prevE = id
		e := &ge[id]
		lu, lv := loc[e.U]-1, loc[e.V]-1
		if lu < 0 || lv < 0 {
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
