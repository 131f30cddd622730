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
// A manifest and a monolithic scheme file are two framings of one
// encoding (persist.go): both open with the same head (parameters and
// global graph), a shard file carries the very component sections
// (connectivity) or tree-cover clusters (dist/router) a monolithic file
// carries, and both loaders decode them through the same functions — a
// monolithic file is the degenerate one-shard split. A shard loads into a
// *partial* scheme — the same ConnLabels / DistLabels / Router types with
// only its own components' structures materialized and every id (vertex,
// edge, component, cluster) kept global — so in-shard queries run the
// exact code paths of the whole scheme and answer bit-identically.
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
	"slices"
	"sort"
	"strings"

	"ftrouting/internal/blob"
	"ftrouting/internal/codec"
	"ftrouting/internal/graph"
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

	// Scheme parameters (union over kinds), encoded by writeHead exactly
	// as a monolithic file of the same scheme encodes them.
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

// schemeDigest computes the CRC32-C binding shards to their manifest:
// the digest of the scheme kind, its parameters and the global graph,
// encoded exactly as the manifest encodes them.
func (m *Manifest) schemeDigest() (uint32, error) {
	w := codec.NewWriter(io.Discard)
	w.U16(uint16(m.kind))
	m.writeHead(w)
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
// shard files to fill in. It also returns the hierarchy of a dist/router
// scheme, which the shard files split.
func newManifest(scheme any, opts ShardOptions) (*Manifest, *treecover.Hierarchy, error) {
	m, hier, err := describe(scheme)
	if err != nil {
		return nil, nil, err
	}
	m.setDirectory()
	if hier != nil {
		for _, cover := range hier.Scales {
			m.clusterCounts = append(m.clusterCounts, len(cover.Clusters))
		}
	}
	var nshards int
	m.shard, nshards = assignShards(m.compVerts, opts.Shards)
	m.shards = make([]ShardInfo, nshards)
	for s := range m.shards {
		m.shards[s].Name = fmt.Sprintf("shard-%04d.fts", s)
	}
	if err := m.finish(); err != nil {
		return nil, nil, err
	}
	return m, hier, nil
}

// setDirectory derives the vertex -> component directory and the
// per-component totals from the graph: every artifact's directory is this
// recomputation, never a copy taken on trust.
func (m *Manifest) setDirectory() {
	m.comp, m.ncomp = graph.Components(m.g, nil)
	m.compVerts, m.compEdges = componentStats(m.g, m.comp, m.ncomp)
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

// ManifestOf wraps an already-built scheme — a *ConnLabels, *DistLabels
// or *Router — in a manifest with a single shard: the scheme itself,
// resident in memory. Nothing is serialized or rebuilt (LoadShard hands
// the scheme back as is), so a whole scheme takes the one query path
// every manifest consumer runs: PlanBatch, the shard-aware executors and
// the serving tiers. The shard records zero bytes, so it costs a serving
// tier's shard budget nothing and is never evicted; the manifest has no
// store, and LoadShardFrom ignores the store it is given.
func ManifestOf(scheme any) (*Manifest, error) {
	m, _, err := newManifest(scheme, ShardOptions{Shards: 1})
	if err != nil {
		return nil, err
	}
	m.resident = &Shard{m: m, scheme: scheme}
	return m, nil
}

// SaveSharded splits a built scheme (*ConnLabels, *DistLabels or
// *Router; any other type is an error) into a manifest plus shard files
// under dir, which must exist, recording each shard file's checksum and
// size in the manifest it writes last. The returned manifest is ready
// for PlanBatch/LoadShard.
func SaveSharded(dir string, scheme any, opts ShardOptions) (*Manifest, error) {
	m, hier, err := newManifest(scheme, opts)
	if err != nil {
		return nil, err
	}
	for id := range m.shards {
		info := &m.shards[id]
		info.Checksum, info.Bytes, err = writeFile(filepath.Join(dir, info.Name), codec.KindShard, func(w *codec.Writer) {
			w.U16(uint16(m.kind))
			w.U32(m.digest)
			w.I32(int32(id))
			w.I32s(info.Components)
			if c, ok := scheme.(*ConnLabels); ok {
				for _, ci := range info.Components {
					c.encodeSection(w, int(ci))
				}
			} else {
				hierarchyShardPayload(w, m, id, hier)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	if _, _, err := writeFile(filepath.Join(dir, ManifestFileName), codec.KindManifest, m.encode); err != nil {
		return nil, err
	}
	m.store = blob.NewDir(dir)
	return m, nil
}

// encode writes the manifest body: the scheme kind and head, the
// hierarchy's cluster counts (dist/router), the directory and the shard
// table.
func (m *Manifest) encode(w *codec.Writer) {
	w.U16(uint16(m.kind))
	m.writeHead(w)
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
}

// SaveShardedConn splits a connectivity labeling into a manifest plus
// per-component shard files under dir, which must exist. The returned
// manifest is ready for PlanBatch/LoadShard.
func SaveShardedConn(dir string, c *ConnLabels, opts ShardOptions) (*Manifest, error) {
	return SaveSharded(dir, c, opts)
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
	return SaveSharded(dir, d, opts)
}

// SaveShardedRouter splits a preprocessed router into a manifest plus
// shard files under dir, the same way as SaveShardedDist.
func SaveShardedRouter(dir string, r *Router, opts ShardOptions) (*Manifest, error) {
	return SaveSharded(dir, r, opts)
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
// directory for shard resolution is the usual entry point).
func ReadManifest(r io.Reader) (*Manifest, error) {
	cr := codec.NewReader(r)
	if err := codec.ReadHeader(cr, codec.KindManifest); err != nil {
		return nil, err
	}
	return decodeManifest(cr)
}

// decodeManifest decodes a manifest body, through its checksum trailer.
// Decoding is strict: the vertex -> component directory must match a
// recomputation from the decoded graph, and every shard assignment must
// address a real shard, so a manifest can never misroute a query.
func decodeManifest(cr *codec.Reader) (*Manifest, error) {
	m := &Manifest{kind: codec.Kind(cr.U16())}
	if err := m.readHead(cr); err != nil {
		return nil, err
	}
	if m.kind != codec.KindConnLabels {
		numScales := cr.Count(maxPersistedParam)
		if cr.Err() == nil && (numScales < 1 || numScales > 64) {
			cr.Corrupt("manifest scale count %d out of range", numScales)
		}
		for i := 0; i < numScales && cr.Err() == nil; i++ {
			m.clusterCounts = append(m.clusterCounts, cr.Count(codec.MaxElems))
		}
	}
	m.setDirectory()
	if n := cr.Count(m.g.N()); cr.Err() == nil && n != m.ncomp {
		cr.Corrupt("manifest names %d components, graph has %d", n, m.ncomp)
	}
	for v, want := range m.comp {
		if ci := cr.I32(); cr.Err() == nil && ci != want {
			cr.Corrupt("vertex %d in component %d, directory says %d", v, want, ci)
		}
	}
	m.shard = make([]int32, m.ncomp)
	for ci := range m.shard {
		m.shard[ci] = cr.I32()
	}
	nshards := cr.Count(m.ncomp)
	if cr.Err() == nil && m.ncomp > 0 && nshards < 1 {
		cr.Corrupt("manifest names %d components but no shards", m.ncomp)
	}
	m.shards = make([]ShardInfo, nshards)
	for i := range m.shards {
		info := &m.shards[i]
		info.Name = cr.String(maxShardName)
		info.Checksum = cr.U32()
		info.Bytes = cr.I64()
		if cr.Err() != nil {
			break
		}
		if err := validShardName(info.Name); err != nil {
			cr.Corrupt("shard %d: %v", i, err)
		} else if info.Bytes < int64(codec.HeaderLen) {
			cr.Corrupt("shard %d: impossible size %d", i, info.Bytes)
		}
	}
	if err := cr.Finish(); err != nil {
		return nil, err
	}
	seen := make([]bool, nshards)
	for ci, s := range m.shard {
		if s < 0 || int(s) >= nshards {
			return nil, fmt.Errorf("%w: component %d assigned to shard %d of %d", codec.ErrCorrupt, ci, s, nshards)
		}
		seen[s] = true
	}
	if s := slices.Index(seen, false); s >= 0 {
		return nil, fmt.Errorf("%w: shard %d holds no component", codec.ErrCorrupt, s)
	}
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
	if comps := cr.I32s(m.ncomp); cr.Err() == nil && !slices.Equal(comps, want) {
		cr.Corrupt("shard %d components differ from the manifest's assignment", id)
	}
	if err := cr.Err(); err != nil {
		return nil, 0, err
	}
	var scheme any
	var err error
	switch m.kind {
	case codec.KindConnLabels:
		scheme, err = m.decodeConnSections(cr, want)
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

// decodeHierarchyShard reads the per-scale cluster sections of a
// dist/router shard and rebuilds a partial scheme on a partial
// tree-cover hierarchy: full-width cluster rows (global indices, hence
// original instance seeds) with only this shard's slots populated.
func (m *Manifest) decodeHierarchyShard(cr *codec.Reader, id int) (any, error) {
	verts := shardVertices(m, id)
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
				if m.ShardOf(v) != id {
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
	return m.rebuildHierarchy(hier)
}
