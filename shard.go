package ftrouting

// Sharded scheme persistence: a scheme file split per connected
// component. The paper builds and queries every labeling strictly per
// component (Section 3 tags each label with its component id), so a
// persisted scheme is losslessly splittable: a *manifest* file records
// the scheme parameters, the global topology and the global
// vertex -> (component, shard) directory, and each *shard* file carries
// the per-component payloads of one shard. A serving replica needs only
// the manifest plus the shards its queries touch resident in memory —
// the architectural step from one-process serving to distributable
// shards (see `ftroute shard` / `ftroute serve -in shards/`).
//
// Monolithic and sharded files share the per-component encode/decode
// path (encodeConnComponent / decodeConnComponent, codec.EncodeCluster /
// codec.DecodeCluster): a monolithic scheme file is the degenerate
// one-shard split of the same sections. A shard loads into a *partial*
// scheme — the same ConnLabels / DistLabels / Router types with only its
// own components' structures materialized and every id (vertex, edge,
// component, cluster) kept global — so in-shard queries run the exact
// code paths of the whole scheme and answer bit-identically.
//
// Integrity is layered like PR 2's scheme files: every file is
// CRC32-C-trailed, structural nonsense is ErrCorrupt, and in addition a
// scheme *digest* (CRC32-C over kind, parameters and topology) binds
// shard files to their manifest, while the manifest records every shard
// file's checksum — a swapped-in shard file from a different build fails
// the digest or checksum cross-check even though its own trailer
// verifies.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ftrouting/internal/blob"
	"ftrouting/internal/codec"
	"ftrouting/internal/core"
	"ftrouting/internal/distlabel"
	"ftrouting/internal/graph"
	"ftrouting/internal/parallel"
	"ftrouting/internal/route"
	"ftrouting/internal/sketch"
	"ftrouting/internal/treecover"
)

// ManifestFileName is the file name SaveSharded* writes the manifest
// under (shards sit next to it; LoadManifest resolves them relative to
// the manifest's directory).
const ManifestFileName = "manifest.ftm"

// maxShardName bounds a shard file name on the wire.
const maxShardName = 255

// ShardOptions configures SaveShardedConn/SaveShardedDist/SaveShardedRouter.
type ShardOptions struct {
	// Shards is the target shard count. 0 (or a value of at least the
	// component count) yields one shard per component; smaller values
	// group components into shards balanced by vertex count.
	Shards int
}

// ShardInfo describes one shard of a manifest.
type ShardInfo struct {
	// Name is the shard's file name, relative to the manifest.
	Name string
	// Checksum is the CRC32-C trailer of the shard file; LoadShard
	// cross-checks the file it reads against it.
	Checksum uint32
	// Bytes is the shard file size (the serving tier's residency cost).
	Bytes int64
	// Components lists the component ids the shard holds.
	Components []int32
	// Vertices and Edges total the shard's components.
	Vertices, Edges int
}

// Manifest is a loaded shard manifest: the scheme's parameters, the
// global graph, the vertex -> (component, shard) directory and the shard
// table. It plans batches (PlanBatch) and loads shards (LoadShard); it
// holds no label structures itself.
type Manifest struct {
	kind   codec.Kind
	g      *Graph
	comp   []int32 // vertex -> component
	ncomp  int
	shard  []int32 // component -> shard
	shards []ShardInfo
	digest uint32
	store  blob.Store
	// resident is the in-memory shard of a ManifestOf manifest; nil for
	// manifests whose shards live in a store.
	resident *Shard

	// Scheme parameters (union over kinds; see persist.go's monolithic
	// prefixes, which use the identical encoding).
	connScheme ConnSchemeKind
	maxFaults  int
	f, k       int
	seed       uint64
	params     sketch.Params
	balanced   bool
	// clusterCounts[i] is the global cluster count of scale i
	// (dist/router kinds): shards address clusters by global index, so
	// partial hierarchies need the full row widths.
	clusterCounts []int

	compVerts []int // component -> vertex count
	compEdges []int // component -> edge count
}

// Shard is one loaded shard: a partial scheme answering queries for the
// manifest components it holds, bit-identically to the whole scheme.
type Shard struct {
	m      *Manifest
	id     int
	scheme any // *ConnLabels, *DistLabels or *Router (partial)
}

// ID returns the shard's index in its manifest.
func (s *Shard) ID() int { return s.id }

// Scheme returns the partial scheme: a *ConnLabels, *DistLabels or
// *Router whose in-shard queries are bit-identical to the whole scheme's.
func (s *Shard) Scheme() any { return s.scheme }

// Components returns the component ids the shard holds.
func (s *Shard) Components() []int32 {
	return append([]int32(nil), s.m.shards[s.id].Components...)
}

// Kind returns the scheme kind: "conn", "dist" or "router".
func (m *Manifest) Kind() string {
	switch m.kind {
	case codec.KindConnLabels:
		return "conn"
	case codec.KindDistLabels:
		return "dist"
	default:
		return "router"
	}
}

// Graph returns the global graph.
func (m *Manifest) Graph() *Graph { return m.g }

// NumComponents returns the component count of the graph.
func (m *Manifest) NumComponents() int { return m.ncomp }

// NumShards returns the shard count.
func (m *Manifest) NumShards() int { return len(m.shards) }

// Shards returns a copy of the shard table.
func (m *Manifest) Shards() []ShardInfo {
	out := make([]ShardInfo, len(m.shards))
	copy(out, m.shards)
	for i := range out {
		out[i].Components = append([]int32(nil), m.shards[i].Components...)
	}
	return out
}

// ShardBytes returns the recorded file size of one shard (the serving
// tier's residency cost unit).
func (m *Manifest) ShardBytes(id int) int64 { return m.shards[id].Bytes }

// ComponentOf returns the component id of a vertex.
func (m *Manifest) ComponentOf(v int32) int { return int(m.comp[v]) }

// ShardOf returns the shard id holding a vertex's component.
func (m *Manifest) ShardOf(v int32) int { return int(m.shard[m.comp[v]]) }

// FaultBound mirrors the loaded schemes' FaultBound: the f labels were
// sized for, or -1 for the f-independent sketch-based connectivity
// labels.
func (m *Manifest) FaultBound() int {
	switch m.kind {
	case codec.KindConnLabels:
		if m.connScheme == CutBased {
			return m.maxFaults
		}
		return -1
	default:
		return m.f
	}
}

// checkBound is the bound PlanBatch enforces on distinct faults — the
// same value the monolithic PrepareFaults paths pass to checkFaults.
func (m *Manifest) checkBound() int { return m.FaultBound() }

// rhoTop returns the top-scale radius 2^K of the tree-cover hierarchy
// (dist/router kinds). At the top scale every home cluster spans its
// whole component, so an edge appears in at least one cluster instance
// iff its weight is at most rhoTop — the fact planner fault counting
// relies on (see distinctFaultCount).
func (m *Manifest) rhoTop() int64 {
	return int64(1) << uint(len(m.clusterCounts)-1)
}

// assignShards groups components into at most want shards, balancing by
// vertex count: components in decreasing size order go to the currently
// lightest shard (ties to the lowest id). Deterministic, and with
// want >= ncomp (or want == 0) the assignment is the identity — one
// shard per component.
func assignShards(compVerts []int, want int) (shardOf []int32, nshards int) {
	ncomp := len(compVerts)
	if want <= 0 || want > ncomp {
		want = ncomp
	}
	order := make([]int, ncomp)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if compVerts[order[a]] != compVerts[order[b]] {
			return compVerts[order[a]] > compVerts[order[b]]
		}
		return order[a] < order[b]
	})
	load := make([]int, want)
	shardOf = make([]int32, ncomp)
	for _, ci := range order {
		best := 0
		for s := 1; s < want; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		shardOf[ci] = int32(best)
		load[best] += compVerts[ci]
	}
	return shardOf, want
}

// writeParams encodes the manifest's scheme parameters: the prefix a
// monolithic file of the same scheme carries (balanced is written for
// routers only).
func (m *Manifest) writeParams(w *codec.Writer) {
	if m.kind == codec.KindConnLabels {
		w.U16(uint16(m.connScheme))
		w.I32(int32(m.maxFaults))
		w.U64(m.seed)
		return
	}
	w.I32(int32(m.f))
	w.I32(int32(m.k))
	w.U64(m.seed)
	w.I32(int32(m.params.Units))
	w.I32(int32(m.params.Levels))
	if m.kind == codec.KindRouter {
		w.Bool(m.balanced)
	}
}

// schemeDigest computes the CRC32-C binding shards to their manifest:
// the digest of the scheme kind, its parameters and the global graph,
// encoded exactly as the manifest encodes them.
func (m *Manifest) schemeDigest() (uint32, error) {
	w := codec.NewWriter(io.Discard)
	w.U16(uint16(m.kind))
	m.writeParams(w)
	codec.EncodeGraph(w, m.g)
	if err := w.Err(); err != nil {
		return 0, err
	}
	return w.Checksum(), nil
}

// Digest returns the scheme digest binding the manifest, its shards and
// any serving tier over them: the CRC32-C of the scheme kind, parameters
// and global topology. Every artifact of one build — the manifest, the
// ManifestOf of the whole scheme, every replica's /v1/healthz — reports
// the same digest, so a fan-out tier can reject an upstream serving a
// foreign or incompatible build before taking traffic.
func (m *Manifest) Digest() uint32 { return m.digest }

// componentStats tallies per-component vertex and edge counts from a
// directory.
func componentStats(g *Graph, comp []int32, ncomp int) (verts, edges []int) {
	verts = make([]int, ncomp)
	edges = make([]int, ncomp)
	for _, ci := range comp {
		verts[ci]++
	}
	for _, e := range g.Edges() {
		edges[comp[e.U]]++
	}
	return verts, edges
}

// newManifest assembles the in-memory manifest of a built scheme: its
// parameters, digest and directory, with components grouped into shards
// as opts asks. The one constructor behind every SaveSharded* entry point
// and ManifestOf; the shard table's checksums and sizes are left for the
// shard files to fill in.
func newManifest(scheme any, opts ShardOptions) (*Manifest, error) {
	var m *Manifest
	switch v := scheme.(type) {
	case *ConnLabels:
		m = &Manifest{kind: codec.KindConnLabels, g: v.g, comp: v.comp, ncomp: len(v.subs),
			connScheme: v.opts.Scheme, maxFaults: v.opts.MaxFaults, seed: v.opts.Seed}
	case *DistLabels:
		s := v.inner
		m = hierarchyManifest(codec.KindDistLabels, s.Graph(), s.Hierarchy())
		o := s.Options()
		m.f, m.k, m.seed, m.params = s.F(), s.K(), o.Seed, o.Params
	case *Router:
		r := v.inner
		m = hierarchyManifest(codec.KindRouter, r.Graph(), r.Hierarchy())
		o := r.Options()
		m.f, m.k, m.seed, m.params, m.balanced = r.F(), r.K(), o.Seed, o.Params, o.Balanced
	default:
		return nil, fmt.Errorf("ftrouting: unsupported scheme type %T", scheme)
	}
	m.compVerts, m.compEdges = componentStats(m.g, m.comp, m.ncomp)
	var nshards int
	m.shard, nshards = assignShards(m.compVerts, opts.Shards)
	m.shards = make([]ShardInfo, nshards)
	for s := range m.shards {
		m.shards[s].Name = fmt.Sprintf("shard-%04d.fts", s)
	}
	if err := m.finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// finish derives what the shard assignment determines — each shard's
// component list and totals — and the scheme digest. Shared by built and
// decoded manifests.
func (m *Manifest) finish() error {
	for ci, s := range m.shard {
		info := &m.shards[s]
		info.Components = append(info.Components, int32(ci))
		info.Vertices += m.compVerts[ci]
		info.Edges += m.compEdges[ci]
	}
	var err error
	m.digest, err = m.schemeDigest()
	return err
}

// hierarchyManifest starts the manifest of a dist/router scheme: the
// graph, its component directory and the hierarchy's per-scale cluster
// counts.
func hierarchyManifest(kind codec.Kind, g *Graph, hier *treecover.Hierarchy) *Manifest {
	m := &Manifest{kind: kind, g: g}
	m.comp, m.ncomp = graph.Components(g, nil)
	for _, cover := range hier.Scales {
		m.clusterCounts = append(m.clusterCounts, len(cover.Clusters))
	}
	return m
}

// ManifestOf wraps an already-built scheme — a *ConnLabels, *DistLabels
// or *Router — in a manifest with a single shard: the scheme itself,
// resident in memory. Nothing is serialized or rebuilt (LoadShard hands
// the scheme back as is), so a whole scheme takes the one query path
// every manifest consumer runs: PlanBatch, the shard-aware executors and
// the serving tiers. The shard records zero bytes, so it costs a serving
// tier's shard budget nothing and is never evicted; the manifest has no
// store, and LoadShardFrom ignores the store it is given.
func ManifestOf(scheme any) (*Manifest, error) {
	m, err := newManifest(scheme, ShardOptions{Shards: 1})
	if err != nil {
		return nil, err
	}
	m.resident = &Shard{m: m, scheme: scheme}
	return m, nil
}

// writeShardFile writes one shard file and records its checksum and size
// in the shard table. payload writes the kind-specific sections.
func (m *Manifest) writeShardFile(dir string, id int, payload func(*codec.Writer)) error {
	info := &m.shards[id]
	path := filepath.Join(dir, info.Name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := codec.NewWriter(f)
	codec.WriteHeader(w, codec.KindShard)
	w.U16(uint16(m.kind))
	w.U32(m.digest)
	w.I32(int32(id))
	w.Count(len(info.Components))
	for _, ci := range info.Components {
		w.I32(ci)
	}
	payload(w)
	if err := w.Finish(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	info.Checksum = w.Checksum()
	info.Bytes = st.Size()
	return nil
}

// writeManifestFile writes the manifest after every shard is on disk.
func (m *Manifest) writeManifestFile(dir string) error {
	f, err := os.Create(filepath.Join(dir, ManifestFileName))
	if err != nil {
		return err
	}
	w := codec.NewWriter(f)
	codec.WriteHeader(w, codec.KindManifest)
	w.U16(uint16(m.kind))
	m.writeParams(w)
	codec.EncodeGraph(w, m.g)
	if m.kind != codec.KindConnLabels {
		w.Count(len(m.clusterCounts))
		for _, c := range m.clusterCounts {
			w.Count(c)
		}
	}
	w.Count(m.ncomp)
	for _, ci := range m.comp {
		w.I32(ci)
	}
	for _, s := range m.shard {
		w.I32(s)
	}
	w.Count(len(m.shards))
	for _, info := range m.shards {
		w.String(info.Name)
		w.U32(info.Checksum)
		w.I64(info.Bytes)
	}
	if err := w.Finish(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// saveSharded splits a built scheme into a manifest plus shard files
// under dir, which must exist. The returned manifest is ready for
// PlanBatch/LoadShard.
func saveSharded(dir string, scheme any, opts ShardOptions) (*Manifest, error) {
	m, err := newManifest(scheme, opts)
	if err != nil {
		return nil, err
	}
	for id := range m.shards {
		err := m.writeShardFile(dir, id, func(w *codec.Writer) {
			switch v := scheme.(type) {
			case *ConnLabels:
				for _, ci := range m.shards[id].Components {
					encodeConnComponent(w, v.subs[ci], v.componentTree(int(ci)))
				}
			case *DistLabels:
				hierarchyShardPayload(w, m, id, v.inner.Hierarchy())
			case *Router:
				hierarchyShardPayload(w, m, id, v.inner.Hierarchy())
			}
		})
		if err != nil {
			return nil, err
		}
	}
	if err := m.writeManifestFile(dir); err != nil {
		return nil, err
	}
	m.store = blob.NewDir(dir)
	return m, nil
}

// SaveShardedConn splits a connectivity labeling into a manifest plus
// per-component shard files under dir, which must exist. The returned
// manifest is ready for PlanBatch/LoadShard.
func SaveShardedConn(dir string, c *ConnLabels, opts ShardOptions) (*Manifest, error) {
	return saveSharded(dir, c, opts)
}

// hierarchyShardPayload writes the dist/router shard payload: per scale,
// the home indices of the shard's vertices (ascending global id) and the
// shard's clusters tagged with their global indices.
func hierarchyShardPayload(w *codec.Writer, m *Manifest, id int, hier *treecover.Hierarchy) {
	verts := shardVertices(m, id)
	w.Count(len(hier.Scales))
	for _, cover := range hier.Scales {
		w.Count(len(verts))
		for _, v := range verts {
			w.I32(cover.Home[v])
		}
		var own []int32
		for j, cl := range cover.Clusters {
			if m.shard[m.comp[cl.Sub.ToGlobal[0]]] == int32(id) {
				own = append(own, int32(j))
			}
		}
		w.Count(len(own))
		for _, j := range own {
			w.I32(j)
			codec.EncodeCluster(w, cover.Clusters[j])
		}
	}
}

// shardVertices lists a shard's global vertex ids in ascending order.
func shardVertices(m *Manifest, id int) []int32 {
	verts := make([]int32, 0, m.shards[id].Vertices)
	for v, ci := range m.comp {
		if m.shard[ci] == int32(id) {
			verts = append(verts, int32(v))
		}
	}
	return verts
}

// SaveShardedDist splits a distance labeling into a manifest plus shard
// files under dir. Each shard carries its components' tree-cover
// clusters tagged with their global (scale, cluster) indices, so a
// loaded shard rebuilds its instances with the original seeds.
func SaveShardedDist(dir string, d *DistLabels, opts ShardOptions) (*Manifest, error) {
	return saveSharded(dir, d, opts)
}

// SaveShardedRouter splits a preprocessed router into a manifest plus
// shard files under dir, the same way as SaveShardedDist.
func SaveShardedRouter(dir string, r *Router, opts ShardOptions) (*Manifest, error) {
	return saveSharded(dir, r, opts)
}

// LoadManifest reads and validates a manifest file; shard files resolve
// relative to its directory.
func LoadManifest(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := ReadManifest(f)
	if err != nil {
		return nil, err
	}
	m.store = blob.NewDir(filepath.Dir(path))
	return m, nil
}

// Store returns the blob store LoadShard resolves shard names against
// (nil for a manifest decoded with bare ReadManifest).
func (m *Manifest) Store() blob.Store { return m.store }

// SetStore redirects LoadShard to a different blob store — the hook
// that lets a replica holding only the manifest fetch its shards from a
// remote backend. Every shard fetched through any store is still
// verified against the manifest's recorded checksum and scheme digest
// before it is returned, so the store is never trusted.
func (m *Manifest) SetStore(s blob.Store) { m.store = s }

// ReadManifest decodes a manifest from a reader (LoadManifest plus a
// directory for shard resolution is the usual entry point). Decoding is
// strict: beyond the file checksum, the vertex -> component directory
// must match a recomputation from the decoded graph, so a manifest can
// never misroute a query to the wrong shard.
func ReadManifest(r io.Reader) (*Manifest, error) {
	cr := codec.NewReader(r)
	if err := codec.ReadHeader(cr, codec.KindManifest); err != nil {
		return nil, err
	}
	kind := codec.Kind(cr.U16())
	if err := cr.Err(); err != nil {
		return nil, err
	}
	m := &Manifest{kind: kind}
	switch kind {
	case codec.KindConnLabels:
		scheme, maxFaults, seed, err := readConnParams(cr)
		if err != nil {
			return nil, err
		}
		m.connScheme, m.maxFaults, m.seed = scheme, maxFaults, seed
	case codec.KindDistLabels, codec.KindRouter:
		f, k, seed, params, err := readSchemeParams(cr)
		if err != nil {
			return nil, err
		}
		balanced := false
		if kind == codec.KindRouter {
			balanced = cr.Bool()
			if err := cr.Err(); err != nil {
				return nil, err
			}
		}
		m.f, m.k, m.seed, m.params, m.balanced = f, k, seed, params, balanced
	default:
		return nil, fmt.Errorf("%w: manifest holds unknown scheme kind %d", codec.ErrCorrupt, kind)
	}
	g, err := codec.DecodeGraph(cr)
	if err != nil {
		return nil, err
	}
	m.g = g
	if kind != codec.KindConnLabels {
		numScales := cr.Count(maxPersistedParam)
		if err := cr.Err(); err != nil {
			return nil, err
		}
		if numScales < 1 || numScales > 64 {
			cr.Corrupt("manifest scale count %d out of range", numScales)
			return nil, cr.Err()
		}
		for i := 0; i < numScales; i++ {
			m.clusterCounts = append(m.clusterCounts, cr.Count(codec.MaxElems))
		}
		if err := cr.Err(); err != nil {
			return nil, err
		}
	}
	ncomp := cr.Count(g.N())
	if err := cr.Err(); err != nil {
		return nil, err
	}
	m.ncomp = ncomp
	m.comp = make([]int32, g.N())
	for v := range m.comp {
		m.comp[v] = cr.I32()
	}
	m.shard = make([]int32, ncomp)
	for ci := range m.shard {
		m.shard[ci] = cr.I32()
	}
	nshards := cr.Count(ncomp)
	if err := cr.Err(); err != nil {
		return nil, err
	}
	if ncomp > 0 && nshards < 1 {
		cr.Corrupt("manifest names %d components but no shards", ncomp)
		return nil, cr.Err()
	}
	m.shards = make([]ShardInfo, nshards)
	for i := range m.shards {
		info := &m.shards[i]
		info.Name = cr.String(maxShardName)
		info.Checksum = cr.U32()
		info.Bytes = cr.I64()
		if err := cr.Err(); err != nil {
			return nil, err
		}
		if err := validShardName(info.Name); err != nil {
			cr.Corrupt("shard %d: %v", i, err)
			return nil, cr.Err()
		}
		if info.Bytes < int64(codec.HeaderLen) {
			cr.Corrupt("shard %d: impossible size %d", i, info.Bytes)
			return nil, cr.Err()
		}
	}
	if err := cr.Finish(); err != nil {
		return nil, err
	}
	// The directory is load-bearing (it routes every query), so it must
	// agree exactly with a recomputation from the decoded graph, and every
	// shard assignment must address a real shard.
	wantComp, wantCount := graph.Components(g, nil)
	if wantCount != ncomp {
		return nil, fmt.Errorf("%w: manifest names %d components, graph has %d", codec.ErrCorrupt, ncomp, wantCount)
	}
	for v := range m.comp {
		if m.comp[v] != wantComp[v] {
			return nil, fmt.Errorf("%w: vertex %d in component %d, directory says %d", codec.ErrCorrupt, v, wantComp[v], m.comp[v])
		}
	}
	seen := make([]bool, nshards)
	for ci, s := range m.shard {
		if s < 0 || int(s) >= nshards {
			return nil, fmt.Errorf("%w: component %d assigned to shard %d of %d", codec.ErrCorrupt, ci, s, nshards)
		}
		seen[s] = true
	}
	for s, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("%w: shard %d holds no component", codec.ErrCorrupt, s)
		}
	}
	m.compVerts, m.compEdges = componentStats(g, m.comp, ncomp)
	if err := m.finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// validShardName rejects wire shard names that could escape the
// manifest's directory.
func validShardName(name string) error {
	if name == "" || name == "." || name == ".." ||
		strings.ContainsAny(name, "/\\") || strings.ContainsRune(name, 0) {
		return fmt.Errorf("invalid shard file name %q", name)
	}
	return nil
}

// LoadShard fetches, verifies and decodes one shard blob from the
// manifest's store (LoadShardFrom with Store()) into a partial scheme.
func (m *Manifest) LoadShard(id int) (*Shard, error) {
	return m.LoadShardFrom(m.store, id)
}

// LoadShardFrom fetches shard id from store and decodes it into a
// partial scheme. Beyond ReadShard's checks, the blob's size and
// checksum must equal the ones the manifest recorded, so a stale or
// foreign shard blob — even a self-consistent one — is rejected before
// any of it is handed out, no matter which backend produced it.
func (m *Manifest) LoadShardFrom(store blob.Store, id int) (*Shard, error) {
	if id < 0 || id >= len(m.shards) {
		return nil, fmt.Errorf("ftrouting: shard %d out of range [0,%d)", id, len(m.shards))
	}
	if m.resident != nil {
		return m.resident, nil
	}
	if store == nil {
		return nil, fmt.Errorf("ftrouting: manifest has no shard store (see Manifest.SetStore)")
	}
	info := &m.shards[id]
	// Hand the store the manifest-recorded size: a transport whose
	// response reveals no length (chunked 200 fallback) can then tell a
	// cleanly-truncated transfer from a complete one and retry it,
	// instead of the short blob failing the size pre-check below as
	// corruption.
	r, err := blob.OpenExpect(store, info.Name, info.Bytes)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	if r.Size() != info.Bytes {
		return nil, fmt.Errorf("%w: shard %d blob is %d bytes, manifest recorded %d", codec.ErrCorrupt, id, r.Size(), info.Bytes)
	}
	sh, sum, err := m.readShard(bufio.NewReader(io.NewSectionReader(r, 0, r.Size())))
	if err != nil {
		return nil, err
	}
	if sh.id != id {
		return nil, fmt.Errorf("%w: blob %s holds shard %d, manifest lists %d", codec.ErrCorrupt, info.Name, sh.id, id)
	}
	if sum != info.Checksum {
		return nil, fmt.Errorf("%w: shard %d blob checksum %08x, manifest recorded %08x", codec.ErrChecksum, id, sum, info.Checksum)
	}
	return sh, nil
}

// ReadShard decodes a shard from a reader, verifying its digest against
// the manifest and fully validating its structure. LoadShard adds the
// manifest-recorded checksum cross-check.
func (m *Manifest) ReadShard(r io.Reader) (*Shard, error) {
	sh, _, err := m.readShard(r)
	return sh, err
}

func (m *Manifest) readShard(r io.Reader) (*Shard, uint32, error) {
	cr := codec.NewReader(r)
	if err := codec.ReadHeader(cr, codec.KindShard); err != nil {
		return nil, 0, err
	}
	kind := codec.Kind(cr.U16())
	digest := cr.U32()
	id := int(cr.I32())
	if err := cr.Err(); err != nil {
		return nil, 0, err
	}
	if kind != m.kind {
		return nil, 0, fmt.Errorf("%w: shard holds %s sections, manifest is a %s scheme", codec.ErrKind, kind, m.kind)
	}
	if digest != m.digest {
		return nil, 0, fmt.Errorf("%w: shard digest %08x does not match manifest %08x", codec.ErrCorrupt, digest, m.digest)
	}
	if id < 0 || id >= len(m.shards) {
		cr.Corrupt("shard id %d out of range [0,%d)", id, len(m.shards))
		return nil, 0, cr.Err()
	}
	want := m.shards[id].Components
	ncomps := cr.Count(m.ncomp)
	if err := cr.Err(); err != nil {
		return nil, 0, err
	}
	if ncomps != len(want) {
		cr.Corrupt("shard %d lists %d components, manifest assigns %d", id, ncomps, len(want))
		return nil, 0, cr.Err()
	}
	for i := 0; i < ncomps; i++ {
		ci := cr.I32()
		if cr.Err() == nil && ci != want[i] {
			cr.Corrupt("shard %d component %d is %d, manifest assigns %d", id, i, ci, want[i])
		}
	}
	if err := cr.Err(); err != nil {
		return nil, 0, err
	}
	var scheme any
	var err error
	switch m.kind {
	case codec.KindConnLabels:
		scheme, err = m.decodeConnShard(cr, id)
	default:
		scheme, err = m.decodeHierarchyShard(cr, id)
	}
	if err != nil {
		return nil, 0, err
	}
	if err := cr.Finish(); err != nil {
		return nil, 0, err
	}
	return &Shard{m: m, id: id, scheme: scheme}, cr.Checksum(), nil
}

// decodeConnShard reads per-component (subgraph, tree) sections and
// rebuilds a partial connectivity labeling: global graph, global
// directory, and only this shard's component schemes materialized.
func (m *Manifest) decodeConnShard(cr *codec.Reader, id int) (*ConnLabels, error) {
	c := &ConnLabels{
		g:        m.g,
		opts:     ConnOptions{Scheme: m.connScheme, MaxFaults: m.maxFaults, Seed: m.seed},
		comp:     m.comp,
		subs:     make([]*graph.Subgraph, m.ncomp),
		cuts:     make([]*core.CutScheme, m.ncomp),
		sketches: make([]*core.SketchScheme, m.ncomp),
	}
	comps := m.shards[id].Components
	trees := make([]*graph.Tree, len(comps))
	for i, ci := range comps {
		sub, tree, err := decodeConnComponent(cr, m.g, int(ci))
		if err != nil {
			return nil, err
		}
		if err := m.checkComponentSection(cr, int(ci), sub); err != nil {
			return nil, err
		}
		c.subs[ci] = sub
		trees[i] = tree
	}
	err := parallel.ForEach(0, len(comps), func(i int) error {
		return c.buildComponentScheme(int(comps[i]), trees[i])
	})
	if err != nil {
		return nil, fmt.Errorf("%w: rebuilding shard %d labeling: %v", codec.ErrCorrupt, id, err)
	}
	return c, nil
}

// checkComponentSection verifies a decoded component subgraph covers
// component ci exactly: its vertices are precisely the directory's
// members and its edge list is complete. The monolithic loader derives
// the directory from the sections; a shard must agree with the directory
// it is served under.
func (m *Manifest) checkComponentSection(cr *codec.Reader, ci int, sub *graph.Subgraph) error {
	if sub.Local.N() != m.compVerts[ci] {
		cr.Corrupt("component %d section has %d of %d vertices", ci, sub.Local.N(), m.compVerts[ci])
		return cr.Err()
	}
	for _, v := range sub.ToGlobal {
		if m.comp[v] != int32(ci) {
			cr.Corrupt("vertex %d of component %d listed in component-%d section", v, m.comp[v], ci)
			return cr.Err()
		}
	}
	if sub.Local.M() != m.compEdges[ci] {
		cr.Corrupt("component %d section has %d of %d edges", ci, sub.Local.M(), m.compEdges[ci])
		return cr.Err()
	}
	return nil
}

// decodeHierarchyShard reads the per-scale cluster sections of a
// dist/router shard and rebuilds a partial scheme on a partial
// tree-cover hierarchy: full-width cluster rows (global indices, hence
// original instance seeds) with only this shard's slots populated.
func (m *Manifest) decodeHierarchyShard(cr *codec.Reader, id int) (any, error) {
	verts := shardVertices(m, id)
	inShard := make(map[int32]bool, len(verts))
	for _, v := range verts {
		inShard[v] = true
	}
	numScales := cr.Count(len(m.clusterCounts))
	if err := cr.Err(); err != nil {
		return nil, err
	}
	if numScales != len(m.clusterCounts) {
		cr.Corrupt("shard has %d scales, manifest %d", numScales, len(m.clusterCounts))
		return nil, cr.Err()
	}
	hier := &treecover.Hierarchy{G: m.g, K: numScales - 1}
	for i := 0; i < numScales; i++ {
		cover := &treecover.Cover{
			Rho:      int64(1) << uint(i),
			K:        m.k,
			Home:     make([]int32, m.g.N()),
			Clusters: make([]*treecover.Cluster, m.clusterCounts[i]),
		}
		for v := range cover.Home {
			cover.Home[v] = -1
		}
		nhomes := cr.Count(len(verts))
		if cr.Err() == nil && nhomes != len(verts) {
			cr.Corrupt("scale %d lists %d of %d shard vertices", i, nhomes, len(verts))
		}
		if err := cr.Err(); err != nil {
			return nil, err
		}
		for _, v := range verts {
			cover.Home[v] = cr.I32()
		}
		nclusters := cr.Count(m.clusterCounts[i])
		if err := cr.Err(); err != nil {
			return nil, err
		}
		prev := int32(-1)
		for c := 0; c < nclusters; c++ {
			j := cr.I32()
			if cr.Err() == nil && (j <= prev || int(j) >= m.clusterCounts[i]) {
				cr.Corrupt("scale %d cluster index %d out of order or range (%d clusters)", i, j, m.clusterCounts[i])
			}
			if err := cr.Err(); err != nil {
				return nil, err
			}
			prev = j
			cl, err := codec.DecodeCluster(cr, m.g)
			if err != nil {
				return nil, fmt.Errorf("scale %d cluster %d: %w", i, j, err)
			}
			for _, v := range cl.Sub.ToGlobal {
				if !inShard[v] {
					cr.Corrupt("scale %d cluster %d contains vertex %d of another shard", i, j, v)
					return nil, cr.Err()
				}
			}
			cover.Clusters[j] = cl
		}
		// Every shard vertex must point at a resident home cluster that
		// contains it — the decode walk dereferences it unconditionally.
		for _, v := range verts {
			j := cover.Home[v]
			if j < 0 || int(j) >= len(cover.Clusters) || cover.Clusters[j] == nil {
				cr.Corrupt("scale %d: home cluster %d of vertex %d not in this shard", i, j, v)
				return nil, cr.Err()
			}
			if !cover.Clusters[j].Sub.Contains(v) {
				cr.Corrupt("scale %d: vertex %d not in its home cluster %d", i, v, j)
				return nil, cr.Err()
			}
		}
		hier.Scales = append(hier.Scales, cover)
	}
	if m.kind == codec.KindDistLabels {
		inner, err := distlabel.BuildWithHierarchy(m.g, m.f, m.k, distlabel.Options{Seed: m.seed, Params: m.params}, hier)
		if err != nil {
			return nil, fmt.Errorf("%w: rebuilding shard %d distance labeling: %v", codec.ErrCorrupt, id, err)
		}
		return &DistLabels{inner: inner}, nil
	}
	inner, err := route.BuildWithHierarchy(m.g, m.f, m.k, route.Options{Seed: m.seed, Params: m.params, Balanced: m.balanced}, hier)
	if err != nil {
		return nil, fmt.Errorf("%w: rebuilding shard %d router: %v", codec.ErrCorrupt, id, err)
	}
	return &Router{inner: inner}, nil
}
