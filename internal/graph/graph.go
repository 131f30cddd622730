// Package graph is the graph substrate every scheme in this repository is
// built on: a weighted undirected graph with stable edge identifiers and
// per-endpoint port numbers (the routing model of Section 2), plus
// traversals, shortest paths, spanning trees, induced subgraphs and the
// workload generators used by the experiments.
//
// Vertices are dense integers 0..n-1. Each edge has a stable EdgeID (its
// insertion index) and two port numbers: Port(u,v) is the index of the edge
// in u's adjacency list, which is exactly the "port" a routing scheme hands
// to the network layer (Fact 5.1, Eq. 5).
package graph

import (
	"errors"
	"fmt"
	"math"
)

// EdgeID identifies an edge by insertion order.
type EdgeID = int32

// Inf is the distance returned for unreachable vertices. It is small enough
// that Inf+maxWeight cannot overflow int64.
const Inf int64 = math.MaxInt64 / 4

// Edge is an undirected weighted edge. U and V are stored in insertion
// order; PortU is the port number of the edge at U (the index of the edge in
// U's adjacency list) and PortV the port at V.
type Edge struct {
	U, V  int32
	W     int64
	PortU int32
	PortV int32
}

// Other returns the endpoint of e that is not x. It panics if x is not an
// endpoint.
func (e Edge) Other(x int32) int32 {
	switch x {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge (%d,%d)", x, e.U, e.V))
}

// PortAt returns the port number of e at endpoint x.
func (e Edge) PortAt(x int32) int32 {
	switch x {
	case e.U:
		return e.PortU
	case e.V:
		return e.PortV
	}
	panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge (%d,%d)", x, e.U, e.V))
}

// Canon returns the endpoints in canonical (min,max) order.
func (e Edge) Canon() (int32, int32) {
	if e.U < e.V {
		return e.U, e.V
	}
	return e.V, e.U
}

// Arc is a directed view of an edge as seen from one endpoint's adjacency
// list.
type Arc struct {
	To int32
	E  EdgeID
	W  int64
}

// Graph is a weighted undirected graph. The zero value is unusable; create
// graphs with New.
type Graph struct {
	adj   [][]Arc
	edges []Edge
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{adj: make([][]Arc, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// ErrBadEdge is returned by AddEdge for out-of-range endpoints, self-loops,
// or non-positive weights.
var ErrBadEdge = errors.New("graph: invalid edge")

// AddEdge inserts an undirected edge {u,v} of weight w >= 1 and returns its
// EdgeID. Parallel edges are not detected here (generators guarantee simple
// graphs); use HasEdge to check explicitly.
func (g *Graph) AddEdge(u, v int32, w int64) (EdgeID, error) {
	if err := checkEdge(u, v, w, int32(g.N())); err != nil {
		return 0, err
	}
	id := EdgeID(len(g.edges))
	e := Edge{U: u, V: v, W: w, PortU: int32(len(g.adj[u])), PortV: int32(len(g.adj[v]))}
	g.edges = append(g.edges, e)
	g.adj[u] = append(g.adj[u], Arc{To: v, E: id, W: w})
	g.adj[v] = append(g.adj[v], Arc{To: u, E: id, W: w})
	return id, nil
}

// checkEdge validates an edge of a graph on n vertices (ErrBadEdge).
func checkEdge(u, v int32, w int64, n int32) error {
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("%w: endpoint out of range (%d,%d) with n=%d", ErrBadEdge, u, v, n)
	}
	if u == v {
		return fmt.Errorf("%w: self-loop at %d", ErrBadEdge, u)
	}
	if w < 1 {
		return fmt.Errorf("%w: weight %d < 1", ErrBadEdge, w)
	}
	return nil
}

// FromEdges builds a graph on n vertices whose edge i is edges[i]: the
// graph that AddEdge of every edge in order builds, with the same ports
// and adjacency order. It takes ownership of edges and overwrites their
// ports. Every adjacency list is carved from one []Arc slab and capped
// at its degree, so a later AddEdge reallocates the list it grows
// instead of writing into its neighbour's.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	g := New(n)
	// off[u+1] counts u's arcs; the prefix sum turns it into u's slab
	// offset.
	off := make([]int32, n+1)
	for i, e := range edges {
		if err := checkEdge(e.U, e.V, e.W, int32(n)); err != nil {
			return nil, fmt.Errorf("edge %d: %w", i, err)
		}
		off[e.U+1]++
		off[e.V+1]++
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	slab := make([]Arc, 2*len(edges))
	for u := range g.adj {
		if lo, hi := off[u], off[u+1]; hi > lo {
			g.adj[u] = slab[lo:lo:hi]
		}
	}
	for i := range edges {
		e := &edges[i]
		id := EdgeID(i)
		e.PortU, e.PortV = int32(len(g.adj[e.U])), int32(len(g.adj[e.V]))
		g.adj[e.U] = append(g.adj[e.U], Arc{To: e.V, E: id, W: e.W})
		g.adj[e.V] = append(g.adj[e.V], Arc{To: e.U, E: id, W: e.W})
	}
	g.edges = edges
	return g, nil
}

// MustAddEdge is AddEdge for generator code where the arguments are known
// valid by construction.
func (g *Graph) MustAddEdge(u, v int32, w int64) EdgeID {
	id, err := g.AddEdge(u, v, w)
	if err != nil {
		panic(err)
	}
	return id
}

// Edge returns the edge record for id.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// Edges returns the underlying edge slice (not a copy); callers must not
// mutate it.
func (g *Graph) Edges() []Edge { return g.edges }

// Adj returns u's adjacency list (not a copy); callers must not mutate it.
// Adj(u)[p] is the arc behind port p of u.
func (g *Graph) Adj(u int32) []Arc { return g.adj[u] }

// Degree returns the number of edges incident to u.
func (g *Graph) Degree(u int32) int { return len(g.adj[u]) }

// MaxDegree returns the maximum degree over all vertices (0 for empty).
func (g *Graph) MaxDegree() int {
	d := 0
	for u := range g.adj {
		if len(g.adj[u]) > d {
			d = len(g.adj[u])
		}
	}
	return d
}

// ArcAt returns the arc behind port p of u.
func (g *Graph) ArcAt(u int32, p int32) Arc { return g.adj[u][p] }

// HasEdge reports whether an edge {u,v} exists, scanning the smaller
// adjacency list.
func (g *Graph) HasEdge(u, v int32) bool {
	_, ok := g.FindEdge(u, v)
	return ok
}

// FindEdge returns the EdgeID of an edge {u,v} if one exists.
func (g *Graph) FindEdge(u, v int32) (EdgeID, bool) {
	if g.Degree(v) < g.Degree(u) {
		u, v = v, u
	}
	for _, a := range g.adj[u] {
		if a.To == v {
			return a.E, true
		}
	}
	return 0, false
}

// MaxWeight returns the largest edge weight (1 for edgeless graphs), i.e.
// the W of the paper's log(nW) factors.
func (g *Graph) MaxWeight() int64 {
	w := int64(1)
	for _, e := range g.edges {
		if e.W > w {
			w = e.W
		}
	}
	return w
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	out := &Graph{
		adj:   make([][]Arc, len(g.adj)),
		edges: append([]Edge(nil), g.edges...),
	}
	for u := range g.adj {
		out.adj[u] = append([]Arc(nil), g.adj[u]...)
	}
	return out
}

// Validate checks internal invariants (port symmetry, arc/edge agreement)
// and returns the first violation found. It is used by tests and by
// generators in debug paths.
func (g *Graph) Validate() error {
	for id, e := range g.edges {
		for _, end := range [2]struct {
			v, port int32
			to      int32
		}{{e.U, e.PortU, e.V}, {e.V, e.PortV, e.U}} {
			if end.port < 0 || int(end.port) >= len(g.adj[end.v]) {
				return fmt.Errorf("edge %d: port %d out of range at vertex %d", id, end.port, end.v)
			}
			a := g.adj[end.v][end.port]
			if a.To != end.to || a.E != EdgeID(id) || a.W != e.W {
				return fmt.Errorf("edge %d: adjacency mismatch at vertex %d port %d", id, end.v, end.port)
			}
		}
	}
	total := 0
	for u := range g.adj {
		total += len(g.adj[u])
	}
	if total != 2*len(g.edges) {
		return fmt.Errorf("arc count %d != 2*edges %d", total, 2*len(g.edges))
	}
	return nil
}

// EdgeSet is a set of edges, used for fault sets F.
type EdgeSet map[EdgeID]bool

// NewEdgeSet builds a set from ids.
func NewEdgeSet(ids ...EdgeID) EdgeSet {
	s := make(EdgeSet, len(ids))
	for _, id := range ids {
		s[id] = true
	}
	return s
}

// Slice returns the members in unspecified order.
func (s EdgeSet) Slice() []EdgeID {
	out := make([]EdgeID, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	return out
}
