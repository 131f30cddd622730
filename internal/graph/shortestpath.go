package graph

import "container/heap"

// distHeap is a binary min-heap keyed by tentative distance.
type distHeap struct {
	v    []int32
	d    []int64
	pos  []int32 // pos[v] = index in heap, -1 if absent
	dist []int64 // shared tentative distances
}

func (h *distHeap) Len() int { return len(h.v) }
func (h *distHeap) Less(i, j int) bool {
	if h.d[i] != h.d[j] {
		return h.d[i] < h.d[j]
	}
	return h.v[i] < h.v[j] // deterministic tie-break
}
func (h *distHeap) Swap(i, j int) {
	h.v[i], h.v[j] = h.v[j], h.v[i]
	h.d[i], h.d[j] = h.d[j], h.d[i]
	h.pos[h.v[i]] = int32(i)
	h.pos[h.v[j]] = int32(j)
}
func (h *distHeap) Push(x any) {
	it := x.(heapItem)
	h.pos[it.v] = int32(len(h.v))
	h.v = append(h.v, it.v)
	h.d = append(h.d, it.d)
}
func (h *distHeap) Pop() any {
	n := len(h.v) - 1
	it := heapItem{v: h.v[n], d: h.d[n]}
	h.pos[it.v] = -1
	h.v = h.v[:n]
	h.d = h.d[:n]
	return it
}

type heapItem struct {
	v int32
	d int64
}

// Dijkstra computes single-source shortest paths from src over non-skipped
// edges. dist is Inf for unreachable vertices; order lists vertices in
// finalization order (so parents precede children).
func Dijkstra(g *Graph, src int32, skip SkipFunc) (dist []int64, parent []int32, parentEdge []EdgeID, order []int32) {
	return dijkstraMulti(g, []int32{src}, skip, Inf)
}

// MultiSourceDijkstra computes shortest distances from the nearest of the
// given sources, exploring only vertices at distance <= limit (pass Inf for
// no limit). It is the ball-growing primitive of the tree cover (Def 4.1).
func MultiSourceDijkstra(g *Graph, sources []int32, skip SkipFunc, limit int64) (dist []int64, parent []int32, parentEdge []EdgeID, order []int32) {
	return dijkstraMulti(g, sources, skip, limit)
}

func dijkstraMulti(g *Graph, sources []int32, skip SkipFunc, limit int64) (dist []int64, parent []int32, parentEdge []EdgeID, order []int32) {
	n := g.N()
	dist = make([]int64, n)
	parent = make([]int32, n)
	parentEdge = make([]EdgeID, n)
	for i := range dist {
		dist[i] = Inf
		parent[i] = -1
		parentEdge[i] = -1
	}
	h := &distHeap{pos: make([]int32, n)}
	for i := range h.pos {
		h.pos[i] = -1
	}
	for _, s := range sources {
		if dist[s] != 0 {
			dist[s] = 0
			heap.Push(h, heapItem{v: s, d: 0})
		}
	}
	done := make([]bool, n)
	order = make([]int32, 0, n)
	for h.Len() > 0 {
		it := heap.Pop(h).(heapItem)
		u := it.v
		if done[u] {
			continue
		}
		done[u] = true
		order = append(order, u)
		for _, a := range g.Adj(u) {
			if skip != nil && skip(a.E) {
				continue
			}
			nd := dist[u] + a.W
			if nd > limit {
				continue
			}
			if nd < dist[a.To] && !done[a.To] {
				dist[a.To] = nd
				parent[a.To] = u
				parentEdge[a.To] = a.E
				if p := h.pos[a.To]; p >= 0 {
					h.d[p] = nd
					heap.Fix(h, int(p))
				} else {
					heap.Push(h, heapItem{v: a.To, d: nd})
				}
			}
		}
	}
	return dist, parent, parentEdge, order
}

// Distance returns dist_{G\F}(s,t) where F is given as a skip function, or
// Inf if disconnected. This is the ground-truth oracle used to measure
// stretch in every experiment.
func Distance(g *Graph, s, t int32, skip SkipFunc) int64 {
	if s == t {
		return 0
	}
	dist, _, _, _ := Dijkstra(g, s, skip)
	return dist[t]
}

// SPScratch is reusable single-pair shortest-path state: the exact
// dist_{G\F}(s,t) behind every routing result's Opt field. Distance runs a
// bidirectional Dijkstra over the undirected adjacency, one search from s
// and one from t, and stops once the two frontiers' smallest keys sum to at
// least the best s-t path seen so far. Both searches keep their arrays and
// non-interface heaps across calls, and a call resets only the vertices it
// reached, so a warm call costs the two balls it grows, not n, and
// performs zero heap allocations. The zero value is ready to use; not safe
// for concurrent use — pool one per goroutine.
type SPScratch struct {
	fwd, bwd spSearch
	// touched lists every vertex either search reached this call (a vertex
	// reached by both appears twice); Distance resets exactly these, so
	// between calls every dist entry of both searches is Inf.
	touched []int32
}

// spSearch is one direction of the search: tentative distances and a
// lazy-deletion binary heap of parallel (vertex, distance) arrays. A vertex
// is pushed only when its distance strictly falls, so an entry is stale
// exactly when its key exceeds the vertex's current distance.
type spSearch struct {
	dist []int64
	hv   []int32
	hd   []int64
}

// Distance returns dist_{G\F}(s,t) or Inf, identical to the package-level
// Distance.
//
// mu is the shortest s-t path found so far: whenever a search scans an
// edge into a vertex the other search has reached, the joined path is a
// candidate. Each heap's top key bounds from below every distance that
// search has yet to settle, so once topF + topB >= mu no unseen path is
// shorter. When either heap runs dry, its search has settled its whole
// component of G\F; if that holds the other endpoint, the scan of the
// last edge into it offered the exact distance to mu (the endpoint is the
// other search's source, at distance 0).
func (sc *SPScratch) Distance(g *Graph, s, t int32, skip SkipFunc) int64 {
	if s == t {
		return 0
	}
	n := g.N()
	sc.fwd.reserve(n)
	sc.bwd.reserve(n)
	f, b := &sc.fwd, &sc.bwd
	f.dist[s], b.dist[t] = 0, 0
	touched := append(sc.touched[:0], s, t)
	f.hv, f.hd = spHeapPush(f.hv[:0], f.hd[:0], s, 0)
	b.hv, b.hd = spHeapPush(b.hv[:0], b.hd[:0], t, 0)
	mu := Inf
	for len(f.hv) > 0 && len(b.hv) > 0 && f.hd[0]+b.hd[0] < mu {
		// Grow the search with the smaller frontier.
		x, y := f, b
		if len(b.hv) < len(f.hv) {
			x, y = b, f
		}
		u, d := x.hv[0], x.hd[0]
		x.hv, x.hd = spHeapPop(x.hv, x.hd)
		if d > x.dist[u] {
			continue // stale duplicate entry
		}
		for _, a := range g.Adj(u) {
			if skip != nil && skip(a.E) {
				continue
			}
			nd := d + a.W
			if od := y.dist[a.To]; od != Inf && nd+od < mu {
				mu = nd + od
			}
			if old := x.dist[a.To]; nd < old {
				if old == Inf {
					touched = append(touched, a.To)
				}
				x.dist[a.To] = nd
				x.hv, x.hd = spHeapPush(x.hv, x.hd, a.To, nd)
			}
		}
	}
	for _, v := range touched {
		f.dist[v], b.dist[v] = Inf, Inf
	}
	sc.touched = touched
	return mu
}

// reserve makes dist hold at least n entries, all Inf. Entries past a
// smaller graph's n stay Inf, so one scratch serves graphs of any size.
func (x *spSearch) reserve(n int) {
	if len(x.dist) >= n {
		return
	}
	x.dist = make([]int64, n)
	for i := range x.dist {
		x.dist[i] = Inf
	}
}

// spHeapLess orders heap slots by (distance, vertex) — the same
// deterministic tie-break as distHeap.
func spHeapLess(hv []int32, hd []int64, i, j int) bool {
	if hd[i] != hd[j] {
		return hd[i] < hd[j]
	}
	return hv[i] < hv[j]
}

func spHeapPush(hv []int32, hd []int64, v int32, d int64) ([]int32, []int64) {
	hv = append(hv, v)
	hd = append(hd, d)
	for i := len(hv) - 1; i > 0; {
		p := (i - 1) / 2
		if !spHeapLess(hv, hd, i, p) {
			break
		}
		hv[i], hv[p] = hv[p], hv[i]
		hd[i], hd[p] = hd[p], hd[i]
		i = p
	}
	return hv, hd
}

func spHeapPop(hv []int32, hd []int64) ([]int32, []int64) {
	n := len(hv) - 1
	hv[0], hd[0] = hv[n], hd[n]
	hv, hd = hv[:n], hd[:n]
	for i := 0; ; {
		sm := i
		if l := 2*i + 1; l < n && spHeapLess(hv, hd, l, sm) {
			sm = l
		}
		if r := 2*i + 2; r < n && spHeapLess(hv, hd, r, sm) {
			sm = r
		}
		if sm == i {
			break
		}
		hv[i], hv[sm] = hv[sm], hv[i]
		hd[i], hd[sm] = hd[sm], hd[i]
		i = sm
	}
	return hv, hd
}

// Eccentricity returns the largest finite shortest-path distance from v.
func Eccentricity(g *Graph, v int32, skip SkipFunc) int64 {
	dist, _, _, _ := Dijkstra(g, v, skip)
	var ecc int64
	for _, d := range dist {
		if d != Inf && d > ecc {
			ecc = d
		}
	}
	return ecc
}

// DiameterUpperBound returns an upper bound on the weighted diameter of
// every component: twice the maximum eccentricity over one representative
// per component. The distance-label hierarchy uses it to choose the number
// of scales K = ceil(log2(bound)).
func DiameterUpperBound(g *Graph) int64 {
	comp, count := Components(g, nil)
	seen := make([]bool, count)
	var bound int64 = 1
	for v := int32(0); v < int32(g.N()); v++ {
		if seen[comp[v]] {
			continue
		}
		seen[comp[v]] = true
		if e := 2 * Eccentricity(g, v, nil); e > bound {
			bound = e
		}
	}
	return bound
}

// PathWeightOf returns the total weight of a vertex path, verifying each
// consecutive pair is an actual non-skipped edge; ok is false otherwise.
// Used by tests to validate routes produced by decoders.
func PathWeightOf(g *Graph, path []int32, skip SkipFunc) (w int64, ok bool) {
	for i := 1; i < len(path); i++ {
		id, found := g.FindEdge(path[i-1], path[i])
		if !found || (skip != nil && skip(id)) {
			return 0, false
		}
		w += g.Edge(id).W
	}
	return w, true
}
