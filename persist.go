package ftrouting

// Scheme persistence: preprocess once, serve from disk. SaveConnLabels,
// SaveDistLabels and SaveRouter write a self-describing, versioned binary
// file (package internal/codec documents the format); LoadScheme and the
// typed Load functions over it reconstitute a scheme that answers
// Connected/Estimate/Route bit-identically to the one saved.
//
// Every artifact — a scheme file here, a manifest or shard file in
// shard.go — goes through one codec. writeArtifact frames it (header,
// body, CRC32-C trailer, buffered). A scheme file and a manifest open
// with the same head: the parameters and the global graph
// (Manifest.writeHead / readHead). A connectivity scheme's per-component
// (subgraph, spanning tree) sections are read by one decoder,
// Manifest.decodeConnSections, whether a whole file or a shard holds
// them; a distance labeling or router is rebuilt on its tree-cover
// hierarchy, whole or partial, by Manifest.rebuildHierarchy. Loading
// recomputes the component directory from the graph (linear work) and
// re-derives label content from the persisted trees, clusters and seeds,
// but never re-runs spanning-tree or tree-cover construction. Decoding is
// strict: truncated, corrupted, wrong-kind or future-version input yields
// one of the typed errors re-exported below, never a panic.

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"ftrouting/internal/codec"
	"ftrouting/internal/core"
	"ftrouting/internal/distlabel"
	"ftrouting/internal/graph"
	"ftrouting/internal/parallel"
	"ftrouting/internal/route"
	"ftrouting/internal/treecover"
)

// Typed decode errors, re-exported from the wire-format package so
// callers can errors.Is against them without importing internals.
var (
	ErrBadMagic  = codec.ErrBadMagic
	ErrVersion   = codec.ErrVersion
	ErrKind      = codec.ErrKind
	ErrTruncated = codec.ErrTruncated
	ErrCorrupt   = codec.ErrCorrupt
	ErrChecksum  = codec.ErrChecksum
)

// Sanity bounds on persisted parameters: values beyond these cannot come
// from a real build and are rejected as corruption before they can drive
// oversized reconstruction work.
const (
	maxPersistedFaults = 1 << 20
	maxPersistedK      = 64
	maxPersistedParam  = 1 << 20
)

// writeArtifact frames one artifact — header, body, checksum trailer —
// through a buffer (codec.Writer issues one Write per field) and returns
// the trailer checksum.
func writeArtifact(w io.Writer, kind codec.Kind, body func(*codec.Writer)) (uint32, error) {
	bw := bufio.NewWriter(w)
	cw := codec.NewWriter(bw)
	codec.WriteHeader(cw, kind)
	body(cw)
	if err := cw.Finish(); err != nil {
		return 0, err
	}
	return cw.Checksum(), bw.Flush()
}

// createFile opens an artifact file for writing; a variable so tests can
// observe the writes that reach the file.
var createFile = func(path string) (io.WriteCloser, error) { return os.Create(path) }

// writeFile writes one artifact to path and returns its checksum and
// size.
func writeFile(path string, kind codec.Kind, body func(*codec.Writer)) (uint32, int64, error) {
	f, err := createFile(path)
	if err != nil {
		return 0, 0, err
	}
	sum, err := writeArtifact(f, kind, body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, 0, err
	}
	return sum, st.Size(), nil
}

// describe returns the head of a built scheme — kind, parameters and
// graph — as a manifest with no directory yet, plus the tree-cover
// hierarchy of a dist/router scheme (nil for connectivity).
func describe(scheme any) (*Manifest, *treecover.Hierarchy, error) {
	switch v := scheme.(type) {
	case *ConnLabels:
		return &Manifest{kind: codec.KindConnLabels, g: v.g,
			connScheme: v.opts.Scheme, maxFaults: v.opts.MaxFaults, seed: v.opts.Seed}, nil, nil
	case *DistLabels:
		s, o := v.inner, v.inner.Options()
		return &Manifest{kind: codec.KindDistLabels, g: s.Graph(),
			f: s.F(), k: s.K(), seed: o.Seed, params: o.Params}, s.Hierarchy(), nil
	case *Router:
		r, o := v.inner, v.inner.Options()
		return &Manifest{kind: codec.KindRouter, g: r.Graph(),
			f: r.F(), k: r.K(), seed: o.Seed, params: o.Params, balanced: o.Balanced}, r.Hierarchy(), nil
	}
	return nil, nil, fmt.Errorf("ftrouting: unsupported scheme type %T", scheme)
}

// writeHead encodes the scheme's parameters (balanced for routers only)
// and its global graph: what a scheme file and a manifest both start
// with, and what the scheme digest covers.
func (m *Manifest) writeHead(w *codec.Writer) {
	if m.kind == codec.KindConnLabels {
		w.U16(uint16(m.connScheme))
		w.I32(int32(m.maxFaults))
		w.U64(m.seed)
	} else {
		w.I32(int32(m.f))
		w.I32(int32(m.k))
		w.U64(m.seed)
		w.I32(int32(m.params.Units))
		w.I32(int32(m.params.Levels))
		if m.kind == codec.KindRouter {
			w.Bool(m.balanced)
		}
	}
	codec.EncodeGraph(w, m.g)
}

// readHead decodes the head writeHead encodes for m.kind, rejecting
// parameters no real build produces.
func (m *Manifest) readHead(cr *codec.Reader) error {
	switch m.kind {
	case codec.KindConnLabels:
		m.connScheme = ConnSchemeKind(cr.U16())
		m.maxFaults = int(cr.I32())
		m.seed = cr.U64()
	case codec.KindDistLabels, codec.KindRouter:
		m.f = int(cr.I32())
		m.k = int(cr.I32())
		m.seed = cr.U64()
		m.params.Units = int(cr.I32())
		m.params.Levels = int(cr.I32())
		if m.kind == codec.KindRouter {
			m.balanced = cr.Bool()
		}
	default:
		cr.Corrupt("unknown scheme kind %d", m.kind)
	}
	if cr.Err() != nil {
		return cr.Err()
	}
	conn, bound := m.kind == codec.KindConnLabels, m.f
	if conn {
		bound = m.maxFaults
	}
	switch {
	case conn && m.connScheme != CutBased && m.connScheme != SketchBased:
		cr.Corrupt("unknown connectivity scheme %d", m.connScheme)
	case bound < 0 || bound > maxPersistedFaults:
		cr.Corrupt("fault bound %d out of range", bound)
	case !conn && (m.k < 1 || m.k > maxPersistedK):
		cr.Corrupt("stretch parameter %d out of range", m.k)
	case m.params.Units < 0 || m.params.Units > maxPersistedParam ||
		m.params.Levels < 0 || m.params.Levels > maxPersistedParam:
		cr.Corrupt("sketch params %+v out of range", m.params)
	}
	if cr.Err() != nil {
		return cr.Err()
	}
	g, err := codec.DecodeGraph(cr)
	m.g = g
	return err
}

// encodeSection writes component ci's section: its induced subgraph and
// the spanning tree it was labeled on.
func (c *ConnLabels) encodeSection(w *codec.Writer, ci int) {
	codec.EncodeSubgraph(w, c.subs[ci])
	codec.EncodeTree(w, c.componentTree(ci))
}

// decodeConnSections reads the sections of components comps, in order,
// checks each against the directory, and rebuilds their labelings in
// parallel from the per-component seeds. The result keeps the global
// graph and directory with only comps materialized: the whole scheme
// when comps is every component, a shard's partial scheme otherwise.
func (m *Manifest) decodeConnSections(cr *codec.Reader, comps []int32) (*ConnLabels, error) {
	c := &ConnLabels{
		g:        m.g,
		opts:     ConnOptions{Scheme: m.connScheme, MaxFaults: m.maxFaults, Seed: m.seed},
		comp:     m.comp,
		subs:     make([]*graph.Subgraph, m.ncomp),
		cuts:     make([]*core.CutScheme, m.ncomp),
		sketches: make([]*core.SketchScheme, m.ncomp),
	}
	trees := make([]*graph.Tree, len(comps))
	for i, ci := range comps {
		sub, err := codec.DecodeSubgraph(cr, m.g)
		if err != nil {
			return nil, err
		}
		if trees[i], err = codec.DecodeTree(cr, sub.Local); err != nil {
			return nil, err
		}
		if err := m.checkComponentSection(cr, int(ci), sub, trees[i]); err != nil {
			return nil, err
		}
		c.subs[ci] = sub
	}
	err := parallel.ForEach(0, len(comps), func(i int) error {
		return c.buildComponentScheme(int(comps[i]), trees[i])
	})
	if err != nil {
		return nil, fmt.Errorf("%w: rebuilding component labeling: %v", codec.ErrCorrupt, err)
	}
	return c, nil
}

// checkComponentSection verifies a decoded section covers component ci
// exactly — its vertices are precisely the directory's members, its edge
// list is complete — and that its tree spans it.
func (m *Manifest) checkComponentSection(cr *codec.Reader, ci int, sub *graph.Subgraph, tree *graph.Tree) error {
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
	} else if tree.Size() != sub.Local.N() {
		cr.Corrupt("component %d tree spans %d of %d vertices", ci, tree.Size(), sub.Local.N())
	}
	return cr.Err()
}

// rebuildHierarchy re-derives a distance labeling or router on a decoded
// tree-cover hierarchy — a whole file's, or a shard's partial one — from
// the persisted seeds.
func (m *Manifest) rebuildHierarchy(hier *treecover.Hierarchy) (any, error) {
	if m.kind == codec.KindDistLabels {
		inner, err := distlabel.BuildWithHierarchy(m.g, m.f, m.k, distlabel.Options{Seed: m.seed, Params: m.params}, hier)
		if err != nil {
			return nil, fmt.Errorf("%w: rebuilding distance labeling: %v", codec.ErrCorrupt, err)
		}
		return &DistLabels{inner: inner}, nil
	}
	inner, err := route.BuildWithHierarchy(m.g, m.f, m.k, route.Options{Seed: m.seed, Params: m.params, Balanced: m.balanced}, hier)
	if err != nil {
		return nil, fmt.Errorf("%w: rebuilding router: %v", codec.ErrCorrupt, err)
	}
	return &Router{inner: inner}, nil
}

// SaveConnLabels writes a connectivity labeling to w.
func SaveConnLabels(w io.Writer, c *ConnLabels) error { return saveScheme(w, c) }

// SaveDistLabels writes a distance labeling to w.
func SaveDistLabels(w io.Writer, d *DistLabels) error { return saveScheme(w, d) }

// SaveRouter writes a preprocessed router to w.
func SaveRouter(w io.Writer, r *Router) error { return saveScheme(w, r) }

// saveScheme writes a whole scheme file: the head, then every component's
// section (connectivity) or the whole hierarchy (dist/router).
func saveScheme(w io.Writer, scheme any) error {
	m, hier, err := describe(scheme)
	if err != nil {
		return err
	}
	_, err = writeArtifact(w, m.kind, func(cw *codec.Writer) {
		m.writeHead(cw)
		if c, ok := scheme.(*ConnLabels); ok {
			cw.Count(len(c.subs))
			for ci := range c.subs {
				c.encodeSection(cw, ci)
			}
		} else {
			codec.EncodeHierarchy(cw, hier)
		}
	})
	return err
}

// LoadConnLabels reads a labeling previously written by SaveConnLabels.
// The loaded labeling answers VertexLabel/EdgeLabel/Query/Connected
// bit-identically to the saved one.
func LoadConnLabels(r io.Reader) (*ConnLabels, error) {
	return loadAs[*ConnLabels](r, codec.KindConnLabels)
}

// LoadDistLabels reads a labeling previously written by SaveDistLabels.
// The loaded labeling answers Estimate bit-identically to the saved one.
func LoadDistLabels(r io.Reader) (*DistLabels, error) {
	return loadAs[*DistLabels](r, codec.KindDistLabels)
}

// LoadRouter reads a router previously written by SaveRouter. The loaded
// router answers Route/RouteForbidden bit-identically to the saved one.
func LoadRouter(r io.Reader) (*Router, error) {
	return loadAs[*Router](r, codec.KindRouter)
}

// loadAs reads a scheme file that must hold kind.
func loadAs[T any](r io.Reader, kind codec.Kind) (T, error) {
	var zero T
	cr := codec.NewReader(r)
	if err := codec.ReadHeader(cr, kind); err != nil {
		return zero, err
	}
	s, err := decodeScheme(cr, kind)
	if err != nil {
		return zero, err
	}
	return s.(T), nil
}

// LoadScheme reads any scheme file, dispatching on the artifact kind in
// its header, and returns a *ConnLabels, *DistLabels or *Router.
func LoadScheme(r io.Reader) (any, error) {
	cr := codec.NewReader(r)
	kind, err := codec.ReadHeaderAny(cr)
	if err != nil {
		return nil, err
	}
	return decodeScheme(cr, kind)
}

// decodeScheme decodes the body of a scheme file whose header declared
// kind, through its checksum trailer. A connectivity file's sections must
// follow the component directory recomputed from the graph, in order.
func decodeScheme(cr *codec.Reader, kind codec.Kind) (any, error) {
	if kind != codec.KindConnLabels && kind != codec.KindDistLabels && kind != codec.KindRouter {
		return nil, fmt.Errorf("%w: file holds %s, not a scheme", codec.ErrKind, kind)
	}
	m := &Manifest{kind: kind}
	if err := m.readHead(cr); err != nil {
		return nil, err
	}
	var s any
	var err error
	if kind == codec.KindConnLabels {
		m.setDirectory()
		if n := cr.Count(m.g.N()); cr.Err() == nil && n != m.ncomp {
			cr.Corrupt("file names %d components, graph has %d", n, m.ncomp)
		}
		all := make([]int32, m.ncomp)
		for ci := range all {
			all[ci] = int32(ci)
		}
		s, err = m.decodeConnSections(cr, all)
	} else {
		var hier *treecover.Hierarchy
		if hier, err = codec.DecodeHierarchy(cr, m.g); err == nil {
			s, err = m.rebuildHierarchy(hier)
		}
	}
	if err != nil {
		return nil, err
	}
	if err := cr.Finish(); err != nil {
		return nil, err
	}
	return s, nil
}
