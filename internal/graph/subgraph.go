package graph

import (
	"fmt"
	"slices"
	"sync"
)

// Subgraph is an induced subgraph with local vertex numbering plus the
// mappings back to the parent graph. Tree-cover instances G_{i,j} =
// G[V(T_{i,j})] (Section 4) are materialized this way: ancestry labels,
// sketches and extended edge identifiers all speak local IDs, while
// EdgeToGlobal lets the routing layer recover global edges and hence the
// real port numbers (DESIGN.md, "Local instance graphs").
//
// Both columns are strictly ascending, so local ids follow global order
// and LocalVertex/LocalEdge answer the reverse mapping by binary search;
// the constructors resolve edge endpoints through a pooled dense index
// instead (vertexIndex).
type Subgraph struct {
	Local        *Graph
	ToGlobal     []int32  // local vertex -> global vertex, ascending
	EdgeToGlobal []EdgeID // local edge -> global edge, ascending
}

// Induced builds the subgraph of g induced by the given global vertices,
// keeping only edges of weight <= maxW (pass Inf to keep all). vertices
// must be strictly ascending (SortedCopy); local vertex IDs follow their
// order, and local edge IDs the order of the global edge IDs.
func Induced(g *Graph, vertices []int32, maxW int64) (*Subgraph, error) {
	toGlobal := append([]int32(nil), vertices...)
	idx, err := indexVertices(g, toGlobal)
	if err != nil {
		return nil, err
	}
	defer idx.release(toGlobal)
	var edges []EdgeID
	for _, v := range toGlobal {
		for _, a := range g.Adj(v) {
			if a.To > v && a.W <= maxW && idx.loc[a.To] != 0 {
				edges = append(edges, a.E)
			}
		}
	}
	slices.Sort(edges)
	return subgraphFromIndex(g, idx.loc, toGlobal, edges)
}

// LocalVertex returns the local id of global vertex v, if v belongs to the
// subgraph.
func (s *Subgraph) LocalVertex(v int32) (int32, bool) {
	i, ok := slices.BinarySearch(s.ToGlobal, v)
	return int32(i), ok
}

// LocalEdge returns the local id of global edge id, if the edge belongs to
// the subgraph.
func (s *Subgraph) LocalEdge(id EdgeID) (EdgeID, bool) {
	i, ok := slices.BinarySearch(s.EdgeToGlobal, id)
	return EdgeID(i), ok
}

// vertexIndex is a dense index of a vertex list of a parent graph:
// loc[v] is v's position in the list plus one, and 0 for a vertex
// outside it. The subgraph constructors resolve every edge endpoint with
// one load from it. Indexes are pooled and all zero while in the pool;
// release clears exactly the entries indexVertices set.
type vertexIndex struct{ loc []int32 }

var vertexIndexes = sync.Pool{New: func() any { return new(vertexIndex) }}

// indexVertices checks that toGlobal is a strictly ascending list of
// vertices of g and returns its index, taken from the pool. The caller
// must release it.
func indexVertices(g *Graph, toGlobal []int32) (*vertexIndex, error) {
	n := g.N()
	prev := int32(-1)
	for _, v := range toGlobal {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("graph: subgraph vertex %d out of range", v)
		}
		if v <= prev {
			return nil, fmt.Errorf("graph: subgraph vertices not strictly ascending at %d", v)
		}
		prev = v
	}
	idx := vertexIndexes.Get().(*vertexIndex)
	if cap(idx.loc) < n {
		idx.loc = make([]int32, n)
	}
	idx.loc = idx.loc[:n]
	for i, v := range toGlobal {
		idx.loc[v] = int32(i) + 1
	}
	return idx, nil
}

// release clears the entries of the vertices of toGlobal, the list idx
// was built from, and returns idx to the pool.
func (idx *vertexIndex) release(toGlobal []int32) {
	for _, v := range toGlobal {
		idx.loc[v] = 0
	}
	vertexIndexes.Put(idx)
}

// Contains reports whether the global vertex v belongs to the subgraph.
func (s *Subgraph) Contains(v int32) bool {
	_, ok := s.LocalVertex(v)
	return ok
}

// PortIn returns the port of the global counterpart of local edge le at
// local vertex lv, in the adjacency of the parent graph g (this is what a
// router must put on the wire).
func (s *Subgraph) PortIn(g *Graph, le EdgeID, lv int32) int32 {
	return g.Edge(s.EdgeToGlobal[le]).PortAt(s.ToGlobal[lv])
}

// SortedCopy returns the vertices sorted ascending (helper for
// deterministic cluster construction).
func SortedCopy(vs []int32) []int32 {
	out := append([]int32(nil), vs...)
	slices.Sort(out)
	return out
}
