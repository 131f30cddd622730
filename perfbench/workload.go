package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"

	"ftrouting"
)

// Every request carries this many pairs, and pair endpoints follow a
// Zipf law with this exponent over a seeded permutation of the vertices.
const (
	pairsPerRequest = 16
	pairSkew        = 0.8
	faultPoolSize   = 16
)

// Seed-derivation salts: the vertex permutation, the fault-set pool, the
// per-request streams and the island order get independent randomness
// from their seed.
const (
	saltPerm   uint64 = 0x7065726662656e01
	saltPool   uint64 = 0x7065726662656e02
	saltReq    uint64 = 0x7065726662656e03
	saltIsland uint64 = 0x7065726662656e04
)

// schemeSeed builds every workload's graph and scheme and draws its
// fault-set pool and vertex popularity: the topology, its labels, the
// pooled fault sets and which vertices are hot are the benchmark's fixed
// data set, and the run's seed draws the requests from them (each
// request's pairs and pool entry, fresh fault sets, the island order).
// Drawn per run seed, graphs and schemes moved the daemon's memory by up
// to 20%, pools moved route-warm's by 33% (each pooled set has a
// resident fault context), and the hot vertices moved conn-warm's
// latency by about 10% (they set the share of disconnected answers), as
// much as a change under test might.
const schemeSeed = 1

// workload is one traffic mix against one scheme. A request is a pure
// function of (seed, index); the graph, scheme, fault-set pool and
// vertex popularity are drawn with schemeSeed.
type workload struct {
	name     string
	endpoint string
	// rate is the fixed offered load of the open-loop phase, in requests
	// per second: 5–20% of the closed-loop maximum on a quiet 2-vCPU VM
	// at the commit that introduced the benchmark. At half of it, a busy
	// spell of the shared host saturated the open loop.
	rate float64
	// pool > 0 draws each request's fault set from a pool of that many
	// sets; 0 draws a fresh set per request.
	pool int
	// shardBudget > 0 serves a manifest with one shard per component and
	// a resident budget of the bytes of this many of the largest shards.
	shardBudget int
	// islands > 0 says the graph is that many equal islands of
	// consecutive vertices, and keeps every request inside one island:
	// request i queries island order[i mod islands] of a seeded order, so
	// requests cycle through all islands.
	islands int
	graph   func(seed uint64) *ftrouting.Graph
	build   func(g *ftrouting.Graph, seed uint64) (any, error)
	faults  func(g *ftrouting.Graph, r *rand.Rand) []ftrouting.EdgeID
}

var workloads = []*workload{
	{
		name:     "conn-warm",
		endpoint: "connected",
		rate:     400,
		pool:     faultPoolSize,
		graph:    func(uint64) *ftrouting.Graph { return ftrouting.RingOfCliques(64, 16) },
		build: func(g *ftrouting.Graph, seed uint64) (any, error) {
			return ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{
				Scheme: ftrouting.SketchBased, MaxFaults: 4, Seed: seed})
		},
		faults: ringFaults,
	},
	{
		name:     "dist-fault-churn",
		endpoint: "estimate",
		rate:     80,
		graph:    func(seed uint64) *ftrouting.Graph { return ftrouting.RandomConnected(2000, 4000, seed) },
		build: func(g *ftrouting.Graph, seed uint64) (any, error) {
			return ftrouting.BuildDistanceLabels(g, 2, 2, seed)
		},
		faults: randomFaults(2),
	},
	{
		name:     "route-warm",
		endpoint: "route-forbidden",
		rate:     300,
		pool:     faultPoolSize,
		graph: func(uint64) *ftrouting.Graph {
			g, _ := ftrouting.FatTree(8)
			return g
		},
		build: func(g *ftrouting.Graph, seed uint64) (any, error) {
			return ftrouting.NewRouter(g, 2, 2, ftrouting.RouterOptions{Seed: seed, Balanced: true})
		},
		faults: randomFaults(2),
	},
	{
		name:        "shard-churn",
		endpoint:    "connected",
		rate:        150,
		pool:        faultPoolSize,
		shardBudget: 4,
		islands:     16,
		graph:       func(seed uint64) *ftrouting.Graph { return ftrouting.Islands(16, 1000, 2000, seed) },
		build: func(g *ftrouting.Graph, seed uint64) (any, error) {
			return ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{
				Scheme: ftrouting.CutBased, MaxFaults: 4, Seed: seed})
		},
		faults: randomFaults(4),
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// ringFaults fails two ring links of a ring of cliques, which splits the
// ring into two arcs (about a third of pairs disconnected), plus two
// random edges.
func ringFaults(g *ftrouting.Graph, r *rand.Rand) []ftrouting.EdgeID {
	var ring []ftrouting.EdgeID
	for id, e := range g.Edges() {
		if e.U/16 != e.V/16 {
			ring = append(ring, ftrouting.EdgeID(id))
		}
	}
	out := distinctEdges(nil, len(ring), 2, r, func(i int) ftrouting.EdgeID { return ring[i] })
	return distinctEdges(out, g.M(), 2, r, func(i int) ftrouting.EdgeID { return ftrouting.EdgeID(i) })
}

func randomFaults(k int) func(*ftrouting.Graph, *rand.Rand) []ftrouting.EdgeID {
	return func(g *ftrouting.Graph, r *rand.Rand) []ftrouting.EdgeID {
		return distinctEdges(nil, g.M(), k, r, func(i int) ftrouting.EdgeID { return ftrouting.EdgeID(i) })
	}
}

// distinctEdges appends k edges drawn from at(0..n-1) that are not in
// out yet.
func distinctEdges(out []ftrouting.EdgeID, n, k int, r *rand.Rand, at func(int) ftrouting.EdgeID) []ftrouting.EdgeID {
	for added := 0; added < k; {
		id := at(r.IntN(n))
		dup := false
		for _, have := range out {
			dup = dup || have == id
		}
		if !dup {
			out = append(out, id)
			added++
		}
	}
	return out
}

// generator derives request i from the seed. It is immutable after
// construction and safe for concurrent use.
type generator struct {
	seed uint64
	// perm ranks the vertices (of one island, on island workloads) by
	// popularity; order is the island order of an island workload, whose
	// islands have islandSize vertices.
	perm       []int32
	order      []int32
	islandSize int32
	cdf        []float64
	pool       [][]ftrouting.EdgeID
	wl         *workload
	g          *ftrouting.Graph
}

func newGenerator(wl *workload, g *ftrouting.Graph, seed uint64) *generator {
	gen := &generator{seed: seed, wl: wl, g: g}
	n := g.N()
	if wl.islands > 0 {
		n /= wl.islands
		gen.islandSize = int32(n)
		for _, island := range rand.New(rand.NewPCG(seed, saltIsland)).Perm(wl.islands) {
			gen.order = append(gen.order, int32(island))
		}
	}
	gen.perm = make([]int32, n)
	for rank, v := range rand.New(rand.NewPCG(schemeSeed, saltPerm)).Perm(n) {
		gen.perm[rank] = int32(v)
	}
	gen.cdf = make([]float64, n)
	sum := 0.0
	for k := range gen.cdf {
		sum += math.Pow(float64(k+1), -pairSkew)
		gen.cdf[k] = sum
	}
	for k := range gen.cdf {
		gen.cdf[k] /= sum
	}
	for j := 0; j < wl.pool; j++ {
		gen.pool = append(gen.pool, wl.faults(g, rand.New(rand.NewPCG(schemeSeed^saltPool, uint64(j)))))
	}
	return gen
}

func (gen *generator) vertex(r *rand.Rand) int32 {
	k := sort.SearchFloat64s(gen.cdf, r.Float64())
	if k >= len(gen.perm) {
		k = len(gen.perm) - 1
	}
	return gen.perm[k]
}

// request returns request i of the seed's schedule.
func (gen *generator) request(i uint64) ftrouting.QueryBatch {
	r := rand.New(rand.NewPCG(gen.seed^saltReq, i))
	var base int32
	if gen.order != nil {
		base = gen.order[i%uint64(len(gen.order))] * gen.islandSize
	}
	b := ftrouting.QueryBatch{Pairs: make([]ftrouting.Pair, pairsPerRequest)}
	for p := range b.Pairs {
		b.Pairs[p] = ftrouting.Pair{S: base + gen.vertex(r), T: base + gen.vertex(r)}
	}
	if gen.pool != nil {
		b.Faults = gen.pool[r.IntN(len(gen.pool))]
	} else {
		b.Faults = gen.wl.faults(gen.g, r)
	}
	return b
}

// saveScheme writes the scheme file the daemon serves and returns its
// size in bytes.
func saveScheme(path string, scheme any) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	switch s := scheme.(type) {
	case *ftrouting.ConnLabels:
		err = ftrouting.SaveConnLabels(f, s)
	case *ftrouting.DistLabels:
		err = ftrouting.SaveDistLabels(f, s)
	case *ftrouting.Router:
		err = ftrouting.SaveRouter(f, s)
	default:
		err = fmt.Errorf("unsupported scheme %T", scheme)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("save %s: %w", path, err)
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// shardScheme splits scheme into one shard per component under dir and returns the manifest and the resident budget in bytes
// that holds the wl.shardBudget largest shards.
func shardScheme(wl *workload, dir string, scheme any) (*ftrouting.Manifest, int64, error) {
	m, err := saveSharded(dir, scheme)
	if err != nil {
		return nil, 0, err
	}
	sizes := make([]int64, m.NumShards())
	for id := range sizes {
		sizes[id] = m.ShardBytes(id)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] > sizes[j] })
	var budget int64
	for _, b := range sizes[:min(wl.shardBudget, len(sizes))] {
		budget += b
	}
	return m, budget, nil
}

// saveSharded writes scheme under dir with one shard per component.
func saveSharded(dir string, scheme any) (*ftrouting.Manifest, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var m *ftrouting.Manifest
	var err error
	switch s := scheme.(type) {
	case *ftrouting.ConnLabels:
		m, err = ftrouting.SaveShardedConn(dir, s, ftrouting.ShardOptions{})
	case *ftrouting.DistLabels:
		m, err = ftrouting.SaveShardedDist(dir, s, ftrouting.ShardOptions{})
	case *ftrouting.Router:
		m, err = ftrouting.SaveShardedRouter(dir, s, ftrouting.ShardOptions{})
	default:
		err = fmt.Errorf("unsupported scheme %T", scheme)
	}
	if err != nil {
		return nil, fmt.Errorf("shard into %s: %w", dir, err)
	}
	return m, nil
}

// schemeFile and shardDir are where a workload's artifacts live.
func schemeFile(work string) string { return filepath.Join(work, "scheme.ftl") }
func shardDir(work string) string   { return filepath.Join(work, "shards") }
