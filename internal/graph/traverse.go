package graph

import "fmt"

// SkipFunc filters edges during traversals: edges for which it returns true
// are ignored. A nil SkipFunc skips nothing. Fault sets F are passed as
// EdgeSet.Contains-style closures.
type SkipFunc func(EdgeID) bool

// SkipSet adapts an EdgeSet to a SkipFunc (nil set skips nothing).
func SkipSet(s EdgeSet) SkipFunc {
	if len(s) == 0 {
		return nil
	}
	return func(e EdgeID) bool { return s[e] }
}

// BFS runs a breadth-first search from src over non-skipped edges and
// returns, for every vertex: its parent (-1 if unreached or src), the edge
// to the parent (-1 likewise), and the visit order.
func BFS(g *Graph, src int32, skip SkipFunc) (parent []int32, parentEdge []EdgeID, order []int32) {
	n := g.N()
	parent = make([]int32, n)
	parentEdge = make([]EdgeID, n)
	for i := range parent {
		parent[i] = -1
		parentEdge[i] = -1
	}
	seen := make([]bool, n)
	seen[src] = true
	order = make([]int32, 0, n)
	queue := []int32{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, a := range g.Adj(u) {
			if skip != nil && skip(a.E) {
				continue
			}
			if !seen[a.To] {
				seen[a.To] = true
				parent[a.To] = u
				parentEdge[a.To] = a.E
				queue = append(queue, a.To)
			}
		}
	}
	return parent, parentEdge, order
}

// Components labels each vertex with a dense component id in [0, count)
// over the non-skipped edges. Component ids follow the smallest vertex in
// each component.
func Components(g *Graph, skip SkipFunc) (comp []int32, count int) {
	n := g.N()
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var stack []int32
	for s := int32(0); s < int32(n); s++ {
		if comp[s] >= 0 {
			continue
		}
		id := int32(count)
		count++
		comp[s] = id
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, a := range g.Adj(u) {
				if skip != nil && skip(a.E) {
					continue
				}
				if comp[a.To] < 0 {
					comp[a.To] = id
					stack = append(stack, a.To)
				}
			}
		}
	}
	return comp, count
}

// Connected reports whether the graph (over non-skipped edges) is connected.
// The empty graph is considered connected.
func Connected(g *Graph, skip SkipFunc) bool {
	if g.N() == 0 {
		return true
	}
	_, count := Components(g, skip)
	return count == 1
}

// SameComponent reports whether s and t are connected over non-skipped
// edges. This is the ground truth the FT connectivity schemes are tested
// against.
func SameComponent(g *Graph, s, t int32, skip SkipFunc) bool {
	if s == t {
		return true
	}
	parent, _, _ := BFS(g, s, skip)
	return parent[t] >= 0 || t == s
}

// Tree is a rooted spanning tree (or forest slice rooted at Root) of a
// graph. Parent/ParentEdge are -1 at the root and at vertices outside the
// tree. Order is a preorder (root first, parents before children); Children
// lists each vertex's children in adjacency order.
type Tree struct {
	G          *Graph
	Root       int32
	Parent     []int32
	ParentEdge []EdgeID
	Depth      []int32 // hop depth, -1 outside the tree
	Order      []int32 // preorder over tree vertices only
	Children   [][]int32
	InTree     []bool // by EdgeID: whether the edge is a tree edge
}

// BFSTree builds the breadth-first spanning tree of the component of root.
func BFSTree(g *Graph, root int32, skip SkipFunc) *Tree {
	parent, parentEdge, order := BFS(g, root, skip)
	return newTree(g, root, parent, parentEdge, order)
}

// ShortestPathTree builds the Dijkstra shortest-path tree from root (used
// for cluster trees in the tree cover, Definition 4.1: the tree radius is
// the cluster radius).
func ShortestPathTree(g *Graph, root int32, skip SkipFunc) *Tree {
	_, parent, parentEdge, order := Dijkstra(g, root, skip)
	return newTree(g, root, parent, parentEdge, order)
}

func newTree(g *Graph, root int32, parent []int32, parentEdge []EdgeID, order []int32) *Tree {
	n := g.N()
	t := &Tree{
		G:          g,
		Root:       root,
		Parent:     parent,
		ParentEdge: parentEdge,
		Depth:      make([]int32, n),
		Order:      order,
		Children:   make([][]int32, n),
		InTree:     make([]bool, g.M()),
	}
	for i := range t.Depth {
		t.Depth[i] = -1
	}
	// Children lists are carved from one slab, each capped at its length;
	// a leaf's list stays nil. Depth serves as the child count until the
	// second pass sets it.
	for _, v := range order {
		if v != root {
			t.Depth[parent[v]]++
		}
	}
	slab := make([]int32, max(len(order)-1, 0))
	next := 0
	for _, v := range order {
		if k := int(t.Depth[v]) + 1; k > 0 {
			t.Children[v] = slab[next : next : next+k]
			next += k
		}
	}
	// Order has parents before children in both BFS and Dijkstra
	// (finalization order), so depth can be filled in one pass.
	for _, v := range order {
		if v == root {
			t.Depth[v] = 0
			continue
		}
		t.Depth[v] = t.Depth[parent[v]] + 1
		t.Children[parent[v]] = append(t.Children[parent[v]], v)
		t.InTree[parentEdge[v]] = true
	}
	return t
}

// Size returns the number of vertices in the tree.
func (t *Tree) Size() int { return len(t.Order) }

// Contains reports whether v belongs to the tree.
func (t *Tree) Contains(v int32) bool { return t.Depth[v] >= 0 }

// PathTo returns the tree path from u to v as a vertex sequence, using
// parent pointers (test/diagnostic helper; routing uses treeroute).
func (t *Tree) PathTo(u, v int32) []int32 {
	if !t.Contains(u) || !t.Contains(v) {
		panic(fmt.Sprintf("graph: PathTo on vertices outside tree (%d,%d)", u, v))
	}
	var up, down []int32
	a, b := u, v
	for t.Depth[a] > t.Depth[b] {
		up = append(up, a)
		a = t.Parent[a]
	}
	for t.Depth[b] > t.Depth[a] {
		down = append(down, b)
		b = t.Parent[b]
	}
	for a != b {
		up = append(up, a)
		down = append(down, b)
		a = t.Parent[a]
		b = t.Parent[b]
	}
	up = append(up, a)
	for i := len(down) - 1; i >= 0; i-- {
		up = append(up, down[i])
	}
	return up
}

// PathWeight returns the weighted length of the tree path from u to v.
func (t *Tree) PathWeight(u, v int32) int64 {
	path := t.PathTo(u, v)
	var w int64
	for i := 1; i < len(path); i++ {
		id, ok := t.G.FindEdge(path[i-1], path[i])
		if !ok {
			panic("graph: tree path uses a non-edge")
		}
		w += t.G.Edge(id).W
	}
	return w
}

// WeightedDepth returns for every tree vertex its weighted distance from
// the root along tree edges (-1 outside the tree). Used to measure cluster
// radii.
func (t *Tree) WeightedDepth() []int64 {
	n := t.G.N()
	d := make([]int64, n)
	for i := range d {
		d[i] = -1
	}
	for _, v := range t.Order {
		if v == t.Root {
			d[v] = 0
			continue
		}
		d[v] = d[t.Parent[v]] + t.G.Edge(t.ParentEdge[v]).W
	}
	return d
}
