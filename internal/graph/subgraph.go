package graph

import "slices"

// Subgraph is an induced subgraph with local vertex numbering plus the
// mappings back to the parent graph. Tree-cover instances G_{i,j} =
// G[V(T_{i,j})] (Section 4) are materialized this way: ancestry labels,
// sketches and extended edge identifiers all speak local IDs, while
// EdgeToGlobal lets the routing layer recover global edges and hence the
// real port numbers (DESIGN.md, "Local instance graphs").
//
// Both columns are strictly ascending, so local ids follow global order
// and LocalVertex/LocalEdge answer the reverse mapping by binary search.
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
	var edges []EdgeID
	for _, v := range vertices {
		if v < 0 || int(v) >= g.N() {
			break // SubgraphFromParts rejects the vertex list
		}
		for _, a := range g.Adj(v) {
			if a.To > v && a.W <= maxW {
				if _, ok := search(vertices, a.To); ok {
					edges = append(edges, a.E)
				}
			}
		}
	}
	slices.Sort(edges)
	return SubgraphFromParts(g, append([]int32(nil), vertices...), edges)
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

// search returns the index of x in the strictly ascending column col, if
// present, narrowing the window by arithmetic instead of a branch. The
// constructors' endpoint lookups into one cached column would mispredict
// the branch; the point lookups above keep it for its speculative loads
// on cold columns (DESIGN.md §4).
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
