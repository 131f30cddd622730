package core

import (
	"fmt"
	"sort"
	"sync"

	"ftrouting/internal/ancestry"
	"ftrouting/internal/comptree"
	"ftrouting/internal/eid"
	"ftrouting/internal/graph"
	"ftrouting/internal/parallel"
	"ftrouting/internal/sketch"
	"ftrouting/internal/unionfind"
	"ftrouting/internal/xrand"
)

// SketchOptions configures BuildSketch.
type SketchOptions struct {
	// Copies is the number f' of independent sketch instantiations
	// (Section 5.2 uses f+1; plain connectivity labeling uses 1). Zero
	// means 1.
	Copies int
	// Params sizes the sketches; zero-value selects sketch.DefaultParams.
	Params sketch.Params
	// Seed drives all randomness.
	Seed uint64
	// PortOf supplies the port of local edge e at local endpoint v in
	// whatever network the labels will route on (Eq. 5). nil uses the
	// local graph's own ports.
	PortOf func(e graph.EdgeID, at int32) int32
	// ExtraOf supplies an extra per-endpoint payload embedded in extended
	// identifiers — the tree-routing labels L_T(u), L_T(v) of Eq. (5).
	// nil embeds nothing. Must return exactly ExtraWords words.
	ExtraOf func(v int32) []uint64
	// ExtraWords is the fixed width of the ExtraOf payload.
	ExtraWords int
	// Parallelism bounds the worker goroutines used to build the f'
	// sketch engine copies: 0 uses GOMAXPROCS, 1 builds sequentially.
	// Seeds are derived per copy index, so the labeling is bit-identical
	// at any parallelism.
	Parallelism int
}

// SketchScheme holds the sketch-based FT connectivity labeling of one
// connected graph (Theorem 3.7).
type SketchScheme struct {
	g      *graph.Graph
	tree   *graph.Tree
	anc    []ancestry.Label
	layout *eid.Layout
	// engines[c] is the c-th independent copy; all share layout and seedID.
	engines []*sketch.Engine
	seedID  uint64
	opts    SketchOptions
	// empty is the shared copy-0 context of the empty fault set, so hot
	// paths that decode an instance containing no fault skip PrepareFaults
	// (and its allocations) entirely.
	empty SketchFaultContext
}

// BuildSketch labels the graph spanned by tree; the tree must span all of
// g's vertices (apply per component otherwise). Construction is Õ(m+n):
// assigning ids, ancestry labels and hash seeds (sketch content itself is
// realized on demand; see DESIGN.md "flyweight").
func BuildSketch(g *graph.Graph, tree *graph.Tree, opts SketchOptions) (*SketchScheme, error) {
	if tree.Size() != g.N() {
		return nil, fmt.Errorf("core: tree spans %d of %d vertices; label components separately", tree.Size(), g.N())
	}
	if opts.Copies <= 0 {
		opts.Copies = 1
	}
	if opts.Params == (sketch.Params{}) {
		opts.Params = sketch.DefaultParams(g.N(), g.M())
	}
	if (opts.ExtraOf == nil) != (opts.ExtraWords == 0) {
		return nil, fmt.Errorf("core: ExtraOf and ExtraWords must be set together")
	}
	layout, err := eid.NewLayout(g.N(), opts.PortOf != nil, opts.ExtraWords)
	if err != nil {
		return nil, err
	}
	s := &SketchScheme{
		g:      g,
		tree:   tree,
		anc:    ancestry.Build(tree),
		layout: layout,
		seedID: xrand.DeriveSeed(opts.Seed, 0x1D),
		opts:   opts,
	}
	enc := func(id graph.EdgeID) []uint64 {
		e := g.Edge(id)
		f := eid.Fields{
			U: e.U, V: e.V,
			AncU: s.anc[e.U], AncV: s.anc[e.V],
		}
		if opts.PortOf != nil {
			f.PortU = opts.PortOf(id, e.U)
			f.PortV = opts.PortOf(id, e.V)
		}
		if opts.ExtraOf != nil {
			f.ExtraU = opts.ExtraOf(e.U)
			f.ExtraV = opts.ExtraOf(e.V)
		}
		return layout.Encode(s.seedID, f)
	}
	// Extended identifiers are copy-independent (the UID seed is shared per
	// Section 5.2), so memoize encodings once across all engine copies. The
	// mutex makes concurrent decodes on one scheme safe; encoded slices are
	// immutable once published.
	memo := make([][]uint64, g.M())
	var memoMu sync.Mutex
	encMemo := func(id graph.EdgeID) []uint64 {
		memoMu.Lock()
		defer memoMu.Unlock()
		if memo[id] == nil {
			memo[id] = enc(id)
		}
		return memo[id]
	}
	// The f' copies differ only in their per-copy unit seed, so they can
	// be built concurrently; each engine derives its sampling hashes and
	// UID cache independently (levels within a copy share nothing).
	s.engines = make([]*sketch.Engine, opts.Copies)
	err = parallel.ForEach(opts.Parallelism, opts.Copies, func(c int) error {
		eng, err := sketch.NewEngine(g, layout, opts.Params, s.seedID,
			xrand.DeriveSeed(opts.Seed, 0x5E, uint64(c)), encMemo)
		if err != nil {
			return err
		}
		s.engines[c] = eng
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.empty = SketchFaultContext{scheme: s, trivial: true}
	return s, nil
}

// Copies returns the number of independent sketch copies f'.
func (s *SketchScheme) Copies() int { return len(s.engines) }

// Params returns the sketch sizing in use.
func (s *SketchScheme) Params() sketch.Params { return s.engines[0].Params() }

// Layout returns the extended-identifier layout.
func (s *SketchScheme) Layout() *eid.Layout { return s.layout }

// Graph returns the labeled graph.
func (s *SketchScheme) Graph() *graph.Graph { return s.g }

// Tree returns the spanning tree.
func (s *SketchScheme) Tree() *graph.Tree { return s.tree }

// Anc returns the ancestry label of local vertex v.
func (s *SketchScheme) Anc(v int32) ancestry.Label { return s.anc[v] }

// SketchVertexLabel is the vertex label of Eq. (3)/(6): ancestry label, id,
// and (when routing is configured) the encoded tree-routing label payload.
type SketchVertexLabel struct {
	ID    int32
	Anc   ancestry.Label
	Extra []uint64
}

// BitLen returns the label size in bits (paper accounting: ancestry + id +
// optional tree label payload).
func (l SketchVertexLabel) BitLen(n int) int {
	idBits := 0
	for v := n; v > 0; v >>= 1 {
		idBits++
	}
	return ancestry.BitLen(n) + idBits + 64*len(l.Extra)
}

// VertexLabel returns the label of local vertex v.
func (s *SketchScheme) VertexLabel(v int32) SketchVertexLabel {
	l := SketchVertexLabel{ID: v, Anc: s.anc[v]}
	if s.opts.ExtraOf != nil {
		l.Extra = s.opts.ExtraOf(v)
	}
	return l
}

// SketchEdgeLabel is the edge label of Section 3.2.1: the extended
// identifier for every edge, plus — for tree edges — the subtree sketches,
// the whole-graph sketch, and the seeds. Sketch content is realized lazily
// through the scheme pointer (flyweight; the bits are exactly what the
// label would carry, and BitLen accounts for them).
type SketchEdgeLabel struct {
	scheme *SketchScheme
	E      graph.EdgeID
	EID    []uint64
	IsTree bool
	// child is the endpoint that is the deeper (child) side for tree edges.
	child int32
}

// EdgeLabel returns the label of local edge id.
func (s *SketchScheme) EdgeLabel(id graph.EdgeID) SketchEdgeLabel {
	l := SketchEdgeLabel{
		scheme: s,
		E:      id,
		EID:    s.engines[0].Layout().Encode(s.seedID, s.fieldsOf(id)),
		IsTree: s.tree.InTree[id],
	}
	if l.IsTree {
		e := s.g.Edge(id)
		if s.tree.Parent[e.V] == e.U {
			l.child = e.V
		} else {
			l.child = e.U
		}
	}
	return l
}

// fieldsOf assembles the identifier fields of an edge (same content the
// engine encoder produces).
func (s *SketchScheme) fieldsOf(id graph.EdgeID) eid.Fields {
	e := s.g.Edge(id)
	f := eid.Fields{U: e.U, V: e.V, AncU: s.anc[e.U], AncV: s.anc[e.V]}
	if s.opts.PortOf != nil {
		f.PortU = s.opts.PortOf(id, e.U)
		f.PortV = s.opts.PortOf(id, e.V)
	}
	if s.opts.ExtraOf != nil {
		f.ExtraU = s.opts.ExtraOf(e.U)
		f.ExtraV = s.opts.ExtraOf(e.V)
	}
	return f
}

// Fields decodes the embedded extended identifier.
func (l SketchEdgeLabel) Fields() eid.Fields { return l.scheme.layout.Decode(l.EID) }

// ChildSubtreeSketch returns Sketch(V(T_child)) for tree edges under the
// given copy — the Sketch'(C_j) of Step 2 of the decoder.
func (l SketchEdgeLabel) ChildSubtreeSketch(copy int) sketch.Sketch {
	if !l.IsTree {
		panic("core: ChildSubtreeSketch on non-tree edge label")
	}
	return l.scheme.engines[copy].SubtreeSketch(l.scheme.tree, l.child)
}

// BitLen returns the label size in bits under the paper's accounting:
// non-tree edges carry only the extended identifier; tree edges carry the
// identifier, three sketches per copy, and the two seeds.
func (l SketchEdgeLabel) BitLen() int {
	bits := 64 * len(l.EID)
	if l.IsTree {
		bits += 3 * l.scheme.engines[0].Bits() * len(l.scheme.engines) // Sketch(T_u), Sketch(T_v), Sketch(V) per copy
		bits += 2 * 64                                                 // seeds S_ID, S_h
	}
	return bits
}

// Verdict is the result of Decode.
type Verdict struct {
	Connected bool
	// Path is a succinct s-t path description (Lemma 3.17); non-nil only
	// when Connected and path output was requested. It has O(f) steps.
	Path *SuccinctPath
	// Phases is the number of Boruvka phases executed (diagnostics).
	Phases int
}

// recoveryEdge records an outgoing edge found during the Boruvka
// simulation, connecting two T\F components.
type recoveryEdge struct {
	fields eid.Fields
	cu, cv int32 // components of fields.U / fields.V
}

// SketchFaultContext is a fault set preprocessed for repeated decodes
// against one scheme and copy. Steps 1-3 of the decoder of Section 3.2.2
// (component tree of T\F, component sketches, fault cancellation) depend
// only on F, never on the queried pair, so a batch of pair queries under a
// fixed fault set prepares them once and each Decode runs only Step 4
// (the Boruvka simulation). The context is immutable once PrepareFaults
// returns and safe for concurrent Decode calls; decodes draw their working
// memory from a package-wide scratch pool, so a cached context holds only
// its own component sketches.
type SketchFaultContext struct {
	scheme *SketchScheme
	copy   int
	// trivial marks a fault set with no tree faults: T is intact and every
	// same-instance pair is connected through it.
	trivial bool
	ct      *comptree.Tree
	// comps[c] is the cancelled sketch of component c (Steps 2+3 applied),
	// aliasing slab so that Decode's pre-merge clone is one contiguous copy.
	comps []sketch.Sketch
	slab  *sketch.Slab
}

// foundCand is one candidate outgoing edge found in a Borůvka phase.
type foundCand struct {
	f    eid.Fields
	from int32
}

// pathAdj is one recovery-edge incidence in the path-assembly BFS.
type pathAdj struct {
	rec   int32 // index into the recoveries
	other int32 // neighbouring component
}

// decodeScratch is the per-goroutine scratch of SketchFaultContext.decode:
// the component-sketch clone slab, the Borůvka work queues, the
// candidate/recovery slices and the path-assembly buffers, all retained
// across queries so warm decodes perform zero heap allocations. Every
// buffer is resized to the context at hand, so one pool serves every
// context of every scheme: a scratch grows to the largest component count
// and sketch size it has seen and is then reused allocation-free.
type decodeScratch struct {
	slab       sketch.Slab
	comps      []sketch.Sketch
	uf         unionfind.UF
	cands      []foundCand
	recoveries []recoveryEdge
	// Path-assembly scratch (wantPath decodes).
	adj     [][]pathAdj
	prev    []int32
	visited []bool
	queue   []int32
	chain   []recoveryEdge
}

// decodePool is the package-wide decodeScratch pool. Pooling per package
// (as prepPool does for PrepareFaults) rather than per context keeps the
// scratch count at the number of decoding goroutines, not the number of
// cached contexts.
var decodePool = sync.Pool{New: func() any { return new(decodeScratch) }}

// nextCand extends cands by one slot, reusing the slot's extra-payload
// capacity when the backing array already holds one.
func nextCand(cands []foundCand) ([]foundCand, *foundCand) {
	if len(cands) < cap(cands) {
		cands = cands[:len(cands)+1]
	} else {
		cands = append(cands, foundCand{})
	}
	return cands, &cands[len(cands)-1]
}

// nextRecovery extends recoveries by one slot, reusing capacity like
// nextCand.
func nextRecovery(recs []recoveryEdge) ([]recoveryEdge, *recoveryEdge) {
	if len(recs) < cap(recs) {
		recs = recs[:len(recs)+1]
	} else {
		recs = append(recs, recoveryEdge{})
	}
	return recs, &recs[len(recs)-1]
}

// setFieldsPreserving copies src into dst, reusing dst's extra-payload
// capacity (dst is a scratch slot whose slices never alias src).
func setFieldsPreserving(dst *eid.Fields, src eid.Fields) {
	eu, ev := dst.ExtraU[:0], dst.ExtraV[:0]
	*dst = src
	dst.ExtraU = append(eu, src.ExtraU...)
	dst.ExtraV = append(ev, src.ExtraV...)
}

// PrepareFaults runs the per-fault-set Steps 1-3 of the decoder once:
// (1) identify the components of T\F via the component tree; (2) compute
// each component's sketch from the subtree sketches; (3) cancel the faulty
// edges' contributions. copy selects which of the f' independent sketch
// copies the context is bound to (Section 5.2 uses a fresh copy per
// routing iteration).
func (s *SketchScheme) PrepareFaults(faults []SketchEdgeLabel, copy int) (*SketchFaultContext, error) {
	if copy < 0 || copy >= len(s.engines) {
		return nil, fmt.Errorf("core: copy %d out of range [0,%d)", copy, len(s.engines))
	}
	eng := s.engines[copy]
	ctx := &SketchFaultContext{scheme: s, copy: copy}

	sc := prepPool.Get().(*prepScratch)
	defer prepPool.Put(sc)
	faults = dedupSketchLabels(faults, sc)
	treeFaults := sc.tree[:0]
	for _, l := range faults {
		if l.IsTree {
			treeFaults = append(treeFaults, l)
		}
	}
	sc.tree = treeFaults

	// No tree faults: T is intact, every pair is connected through it.
	if len(treeFaults) == 0 {
		ctx.trivial = true
		return ctx, nil
	}

	// Step 1: component tree of T \ F_T from the child-side ancestry
	// labels (Claim 3.14).
	childLabels := make([]ancestry.Label, len(treeFaults))
	for i, l := range treeFaults {
		f := l.Fields()
		child, _, ok := ancestry.ChildOf(f.AncU, f.AncV)
		if !ok {
			return nil, fmt.Errorf("core: tree-fault label %d has non-nested endpoint intervals", i)
		}
		childLabels[i] = child
	}
	ct, err := comptree.Build(childLabels)
	if err != nil {
		return nil, err
	}
	nc := int32(ct.NumComps())

	// Step 2: component sketches (Claim 3.15). Sketch'(C_j) is the child
	// subtree sketch from the fault label; the root's temporary sketch is
	// Sketch(V), which is identically zero (every edge of the instance is
	// internal to V and cancels).
	temp := make([]sketch.Sketch, nc)
	temp[comptree.RootComp] = eng.NewSketch()
	for i, l := range treeFaults {
		temp[i+1] = l.ChildSubtreeSketch(copy)
	}
	// Component sketches live in one contiguous slab: Decode's pre-merge
	// clone is then a single copy of flat memory.
	slab := eng.NewSlab(int(nc))
	comps := make([]sketch.Sketch, nc)
	for c := int32(0); c < nc; c++ {
		// CloneInto aliases the slab slot (capacities match exactly); note
		// the builtin copy is shadowed by the parameter here.
		comps[c] = temp[c].CloneInto(slab.At(int(c)))
	}
	for c := int32(1); c < nc; c++ {
		comps[ct.Parent(c)].Xor(temp[c])
	}
	ctx.slab = slab

	// Step 3: cancel every faulty edge whose endpoints lie in different
	// components (same-component faults already cancelled inside the XOR).
	for _, l := range faults {
		f := l.Fields()
		cu := ct.Locate(f.AncU)
		cv := ct.Locate(f.AncV)
		if cu == cv {
			continue
		}
		eng.CancelEdge(comps[cu], f.UID, l.EID)
		eng.CancelEdge(comps[cv], f.UID, l.EID)
	}
	ctx.ct = ct
	ctx.comps = comps
	return ctx, nil
}

// Decode decides whether s and t are connected in G\F from labels alone
// (Theorem 3.7, decoder of Section 3.2.2), optionally producing a succinct
// path (Lemma 3.17). copy selects which of the f' independent sketch copies
// to use (Section 5.2 uses a fresh copy per routing iteration).
//
// The four steps: (1) identify the components of T\F via the component
// tree; (2) compute each component's sketch from the subtree sketches;
// (3) cancel the faulty edges' contributions; (4) simulate Boruvka with a
// fresh basic unit per phase. Steps 1-3 depend only on F; batch callers
// share them via PrepareFaults and SketchFaultContext.Decode.
func (s *SketchScheme) Decode(sv, tv SketchVertexLabel, faults []SketchEdgeLabel, copy int, wantPath bool) (Verdict, error) {
	if copy < 0 || copy >= len(s.engines) {
		return Verdict{}, fmt.Errorf("core: copy %d out of range [0,%d)", copy, len(s.engines))
	}
	if sv.ID == tv.ID {
		v := Verdict{Connected: true}
		if wantPath {
			v.Path = &SuccinctPath{}
		}
		return v, nil
	}
	ctx, err := s.PrepareFaults(faults, copy)
	if err != nil {
		return Verdict{}, err
	}
	return ctx.decode(sv, tv, wantPath, nil)
}

// Decode answers one pair against the prepared fault set. It is Step 4 of
// the decoder plus the trivial cases; results are bit-identical to
// SketchScheme.Decode with the same fault set and copy.
func (ctx *SketchFaultContext) Decode(sv, tv SketchVertexLabel, wantPath bool) (Verdict, error) {
	if sv.ID == tv.ID {
		v := Verdict{Connected: true}
		if wantPath {
			v.Path = &SuccinctPath{}
		}
		return v, nil
	}
	return ctx.decode(sv, tv, wantPath, nil)
}

// DecodeInto is Decode with path output written into the caller-owned p,
// whose step and extra-payload storage is reset and reused — the warm route
// walk calls this so repeated path decodes perform zero heap allocations.
// On connected verdicts v.Path == p; p must not be read concurrently with
// further DecodeInto calls that reuse it. Results are bit-identical to
// Decode(sv, tv, true).
func (ctx *SketchFaultContext) DecodeInto(sv, tv SketchVertexLabel, p *SuccinctPath) (Verdict, error) {
	if sv.ID == tv.ID {
		p.reset()
		return Verdict{Connected: true, Path: p}, nil
	}
	return ctx.decode(sv, tv, true, p)
}

// decode runs the Boruvka simulation (Step 4) for one pair on a scratch
// clone of the prepared component sketches. A non-nil p receives the path
// (reusing its storage); with p == nil and wantPath a fresh path is
// allocated.
func (ctx *SketchFaultContext) decode(sv, tv SketchVertexLabel, wantPath bool, p *SuccinctPath) (Verdict, error) {
	if ctx.trivial {
		v := Verdict{Connected: true}
		if wantPath {
			if p == nil {
				p = &SuccinctPath{}
			}
			p.reset()
			p.appendTreeStep(sv, tv)
			v.Path = p
		}
		return v, nil
	}
	eng := ctx.scheme.engines[ctx.copy]
	ct := ctx.ct
	nc := int32(ct.NumComps())
	sc := decodePool.Get().(*decodeScratch)
	defer decodePool.Put(sc)
	ctx.slab.CloneInto(&sc.slab)
	if cap(sc.comps) < int(nc) {
		sc.comps = make([]sketch.Sketch, nc)
	}
	comps := sc.comps[:nc]
	for c := int32(0); c < nc; c++ {
		comps[c] = sc.slab.At(int(c))
	}

	// Step 4: Boruvka over the components with a fresh basic unit per
	// phase. Group sketches live at the union-find roots.
	sc.uf.Reset(int(nc))
	uf := &sc.uf
	cs := ct.Locate(sv.Anc)
	ctc := ct.Locate(tv.Anc)
	sc.recoveries = sc.recoveries[:0]
	phases := 0
	for phase := 0; phase < eng.Params().Units && !uf.Same(cs, ctc); phase++ {
		phases++
		sc.cands = sc.cands[:0]
		for c := int32(0); c < nc; c++ {
			if uf.Find(c) != c {
				continue
			}
			var cand *foundCand
			sc.cands, cand = nextCand(sc.cands)
			if eng.FindOutgoingInto(comps[c], phase, &cand.f) {
				cand.from = c
			} else {
				sc.cands = sc.cands[:len(sc.cands)-1]
			}
		}
		for i := range sc.cands {
			cand := &sc.cands[i]
			cu := ct.Locate(cand.f.AncU)
			cv := ct.Locate(cand.f.AncV)
			ru, rv := uf.Find(cu), uf.Find(cv)
			if ru == rv {
				continue
			}
			root, _ := uf.Union(ru, rv)
			merged := comps[ru]
			merged.Xor(comps[rv])
			comps[root] = merged
			var rec *recoveryEdge
			sc.recoveries, rec = nextRecovery(sc.recoveries)
			rec.cu, rec.cv = cu, cv
			setFieldsPreserving(&rec.fields, cand.f)
		}
	}

	if !uf.Same(cs, ctc) {
		return Verdict{Connected: false, Phases: phases}, nil
	}
	v := Verdict{Connected: true, Phases: phases}
	if wantPath {
		if p == nil {
			p = &SuccinctPath{}
		}
		if err := assemblePathInto(p, sv, tv, cs, ctc, int(nc), sc.recoveries, sc); err != nil {
			return Verdict{}, err
		}
		v.Path = p
	}
	return v, nil
}

// prepScratch holds the PrepareFaults scratch (index sort, deduplicated
// label slice, tree-fault slice), pooled package-wide so the hot prepare
// path performs a sort-and-compact instead of allocating a map per call.
// The faults/byUID fields parameterize the sort.Interface implementation.
type prepScratch struct {
	idx    []int32
	labels []SketchEdgeLabel
	tree   []SketchEdgeLabel
	faults []SketchEdgeLabel
	byUID  bool
}

var prepPool = sync.Pool{New: func() any { return new(prepScratch) }}

func (sc *prepScratch) Len() int      { return len(sc.idx) }
func (sc *prepScratch) Swap(i, j int) { sc.idx[i], sc.idx[j] = sc.idx[j], sc.idx[i] }
func (sc *prepScratch) Less(i, j int) bool {
	if sc.byUID {
		ua, ub := sc.faults[sc.idx[i]].EID[0], sc.faults[sc.idx[j]].EID[0]
		if ua != ub {
			return ua < ub
		}
	}
	return sc.idx[i] < sc.idx[j]
}

// dedupSketchLabels removes duplicate fault labels by UID, preserving
// first-occurrence input order (the T\F component numbering depends on it).
// Sort-and-compact on the scratch index slice: sort positions by
// (UID, position), keep each UID's first position, restore input order.
// The returned slice is backed by sc and valid until sc is repooled.
func dedupSketchLabels(faults []SketchEdgeLabel, sc *prepScratch) []SketchEdgeLabel {
	sc.idx = sc.idx[:0]
	for i := range faults {
		sc.idx = append(sc.idx, int32(i))
	}
	sc.faults, sc.byUID = faults, true
	sort.Sort(sc)
	k := 0
	for i := 0; i < len(sc.idx); i++ {
		if k > 0 && faults[sc.idx[i]].EID[0] == faults[sc.idx[k-1]].EID[0] {
			continue
		}
		sc.idx[k] = sc.idx[i]
		k++
	}
	sc.idx = sc.idx[:k]
	sc.byUID = false
	sort.Sort(sc)
	sc.faults = nil
	out := sc.labels[:0]
	for _, i := range sc.idx {
		out = append(out, faults[i])
	}
	sc.labels = out
	return out
}
