package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

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
	eng := l.scheme.engines[copy]
	out := eng.NewSketch()
	eng.SubtreeSketch(out, l.scheme.tree, l.scheme.anc, l.child, nil)
	return out
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
// (the Boruvka simulation). Step 1 runs in PrepareFaults, since it alone
// can fail. A pair whose endpoints share a component of T\F is connected
// through T and needs no sketch (Claim 3.14), so Steps 2-3 run only on
// the first decode of a pair the faults separate, once per context
// (DESIGN.md §11). The context is safe for concurrent Decode calls;
// decodes draw their working memory from a package-wide scratch pool, so
// a cached context holds only its own component sketches.
type SketchFaultContext struct {
	scheme *SketchScheme
	copy   int
	// trivial marks a fault set with no tree faults: T is intact and every
	// same-instance pair is connected through it.
	trivial bool
	ct      *comptree.Tree
	// inputs is what Steps 2-3 read, owned by the context and dropped once
	// they run: the child vertex of each tree fault (component i+1 is the
	// child side of tree fault i), then one record per fault whose
	// endpoints lie in different components, the components packed as
	// cu<<32|cv followed by the fault's identifier words.
	inputs []uint64
	once   sync.Once
	builds atomic.Int32 // times Steps 2-3 ran; tests read it
	// comps[c] is the cancelled sketch of component c (Steps 2+3 applied),
	// one slot of a contiguous slab, or nil when that sketch is all zero
	// (c has no edge to another component of G\F). It is written once,
	// under once; decodes only read it: a Borůvka merge writes its union
	// into the decoding goroutine's scratch.
	comps []sketch.Sketch
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
// the slab of merged group sketches, the Borůvka work queues, the
// candidate/recovery slices and the path-assembly buffers, all retained
// across queries so warm decodes perform zero heap allocations. Every
// buffer is resized to the context at hand, so one pool serves every
// context of every scheme: a scratch grows to the largest component count
// and sketch size it has seen and is then reused allocation-free.
type decodeScratch struct {
	merged     sketch.Slab
	comps      []sketch.Sketch
	unions     []pendingUnion
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

// pendingUnion is a Borůvka union whose group sketch is not written yet:
// root's group sketch becomes the XOR of the sketches of a and b (root is
// one of them).
type pendingUnion struct{ root, a, b int32 }

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

// PrepareFaults prepares a fault set for repeated decodes. It runs Step 1
// of the decoder, identifying the components of T\F via the component
// tree, and keeps what Steps 2-3 need: (2) each component's sketch from
// the subtree sketches and (3) the cancellation of the faulty edges'
// contributions. Those run on the first decode of a pair the faults
// separate. copy selects which of the f' independent sketch copies the
// context is bound to (Section 5.2 uses a fresh copy per routing
// iteration).
func (s *SketchScheme) PrepareFaults(faults []SketchEdgeLabel, copy int) (*SketchFaultContext, error) {
	if copy < 0 || copy >= len(s.engines) {
		return nil, fmt.Errorf("core: copy %d out of range [0,%d)", copy, len(s.engines))
	}
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
	childLabels := sc.childLabels[:0]
	for i, l := range treeFaults {
		s.layout.DecodeInto(l.EID, &sc.f)
		child, _, ok := ancestry.ChildOf(sc.f.AncU, sc.f.AncV)
		if !ok {
			return nil, fmt.Errorf("core: tree-fault label %d has non-nested endpoint intervals", i)
		}
		childLabels = append(childLabels, child)
	}
	sc.childLabels = childLabels
	ct, err := comptree.Build(childLabels)
	if err != nil {
		return nil, err
	}

	// The inputs of Steps 2-3, in one owned allocation (the labels are the
	// caller's). Only a fault whose endpoints lie in different components
	// is cancelled; a same-component fault already cancels inside the
	// component XOR.
	cw := s.layout.Words()
	cuts := sc.cuts[:0]
	for _, l := range faults {
		s.layout.DecodeInto(l.EID, &sc.f)
		cu, cv := ct.Locate(sc.f.AncU), ct.Locate(sc.f.AncV)
		if cu == cv {
			continue
		}
		cuts = append(cuts, uint64(cu)<<32|uint64(cv))
		cuts = append(cuts, l.EID[:cw]...)
	}
	sc.cuts = cuts
	inputs := make([]uint64, len(treeFaults), len(treeFaults)+len(cuts))
	for i, l := range treeFaults {
		inputs[i] = uint64(l.child)
	}
	ctx.ct = ct
	ctx.inputs = append(inputs, cuts...)
	return ctx, nil
}

// componentSketches returns the context's cancelled component sketches,
// running Steps 2-3 first if no decode has yet.
func (ctx *SketchFaultContext) componentSketches() []sketch.Sketch {
	ctx.once.Do(ctx.buildSketches)
	return ctx.comps
}

// buildSketches runs Steps 2-3 of the decoder from ctx.inputs, in the
// pooled scratch (DESIGN.md §10), and keeps the nonzero component
// sketches in one slab of exactly their size.
func (ctx *SketchFaultContext) buildSketches() {
	s := ctx.scheme
	eng := s.engines[ctx.copy]
	sc := prepPool.Get().(*prepScratch)
	defer prepPool.Put(sc)
	ct := ctx.ct
	nc := ct.NumComps()
	words := eng.Words()
	children, cuts := ctx.inputs[:nc-1], ctx.inputs[nc-1:]

	// Step 2: component sketches (Claim 3.15). Sketch'(C_j) is the child
	// subtree sketch from the fault label; the root's is Sketch(V), which
	// is identically zero (every edge of the instance is internal to V and
	// cancels).
	sc.raw.Resize(words, nc-1)
	for i, child := range children {
		sc.stack = eng.SubtreeSketch(sc.raw.At(i), s.tree, s.anc, int32(child), sc.stack)
	}
	sc.comps.Resize(words, nc)
	sc.comps.At(int(comptree.RootComp)).Reset()
	for c := 1; c < nc; c++ {
		copy(sc.comps.At(c), sc.raw.At(c-1))
	}
	for c := int32(1); c < int32(nc); c++ {
		sc.comps.At(int(ct.Parent(c))).Xor(sc.raw.At(int(c - 1)))
	}

	// Step 3: cancel every faulty edge whose endpoints lie in different
	// components. The UID is the identifier's first word.
	cw := s.layout.Words()
	for ; len(cuts) > 0; cuts = cuts[1+cw:] {
		w := cuts[1 : 1+cw]
		eng.CancelEdge(sc.comps.At(int(cuts[0]>>32)), w[0], w)
		eng.CancelEdge(sc.comps.At(int(uint32(cuts[0]))), w[0], w)
	}
	// A zero component sketch has no cell that can validate, so it is
	// stored as nil and decodes never scan it. The context keeps the
	// nonzero ones in one slab of exactly their size, and no slab at all
	// when every component is zero.
	nonzero := 0
	for c := 0; c < nc; c++ {
		if !sc.comps.At(c).IsZero() {
			nonzero++
		}
	}
	comps := make([]sketch.Sketch, nc)
	if nonzero > 0 {
		slab := make(sketch.Sketch, nonzero*words)
		for c := range comps {
			if src := sc.comps.At(c); !src.IsZero() {
				comps[c] = src.CloneInto(slab)
				slab = slab[words:]
			}
		}
	}
	ctx.comps = comps
	ctx.inputs = nil
	ctx.builds.Add(1)
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

// decode answers one pair with sv.ID != tv.ID. A non-nil p receives the
// path (reusing its storage); with p == nil and wantPath a fresh path is
// allocated.
func (ctx *SketchFaultContext) decode(sv, tv SketchVertexLabel, wantPath bool, p *SuccinctPath) (Verdict, error) {
	if !ctx.trivial {
		if cs, ctc := ctx.ct.Locate(sv.Anc), ctx.ct.Locate(tv.Anc); cs != ctc {
			return ctx.separated(sv, tv, cs, ctc, wantPath, p)
		}
	}
	// s and t share a component of T\F: connected through T, by one tree
	// step (Claim 3.14).
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

// separated runs the Boruvka simulation (Step 4) for a pair in different
// components cs and ctc of T\F over the component sketches, which it
// never writes.
func (ctx *SketchFaultContext) separated(sv, tv SketchVertexLabel, cs, ctc int32, wantPath bool, p *SuccinctPath) (Verdict, error) {
	prepared := ctx.componentSketches()
	eng := ctx.scheme.engines[ctx.copy]
	ct := ctx.ct
	nc := int32(ct.NumComps())
	sc := decodePool.Get().(*decodeScratch)
	defer decodePool.Put(sc)
	// Copy on write: comps starts as views of the prepared sketches (nil
	// for a zero one), and each merge that must be written goes into the
	// next scratch slot. A union joins two groups, so nc-1 slots hold
	// every merge of a decode.
	sc.merged.Resize(eng.Words(), int(nc)-1)
	merges := 0
	comps := append(sc.comps[:0], prepared...)
	sc.comps = comps

	// Step 4: Boruvka over the components with a fresh basic unit per
	// phase. Group sketches live at the union-find roots. A phase reads
	// only the cells of its own unit and never the unions it makes, so a
	// phase's unions are written at the top of the next phase, and a pair
	// joined in the last phase run writes none.
	sc.uf.Reset(int(nc))
	uf := &sc.uf
	sc.recoveries = sc.recoveries[:0]
	sc.unions = sc.unions[:0]
	phases := 0
	for phase := 0; phase < eng.Params().Units && !uf.Same(cs, ctc); phase++ {
		phases++
		for _, u := range sc.unions {
			a, b := comps[u.a], comps[u.b]
			switch {
			case a == nil:
				comps[u.root] = b
			case b == nil:
				comps[u.root] = a
			default:
				merged := sc.merged.At(merges)
				if merged.SetXor(a, b) {
					comps[u.root] = merged
					merges++
				} else {
					comps[u.root] = nil
				}
			}
		}
		sc.unions = sc.unions[:0]
		sc.cands = sc.cands[:0]
		for c := int32(0); c < nc; c++ {
			// A zero group sketch has no outgoing edge to find.
			if comps[c] == nil || uf.Find(c) != c {
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
			sc.unions = append(sc.unions, pendingUnion{root: root, a: ru, b: rv})
			var rec *recoveryEdge
			sc.recoveries, rec = nextRecovery(sc.recoveries)
			rec.cu, rec.cv = cu, cv
			setFieldsPreserving(&rec.fields, cand.f)
		}
	}

	clear(comps) // the pooled scratch must not pin this context's slab

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

// prepScratch holds the scratch of PrepareFaults (index sort, deduplicated
// label slice, tree-fault slice, child labels, cancellation records) and
// of buildSketches (the subtree-walk stack and the raw subtree and
// component sketch slabs), pooled package-wide so the hot prepare path
// performs a sort-and-compact instead of allocating a map per call and
// allocates no sketch it throws away. The faults/byUID fields
// parameterize the sort.Interface implementation.
type prepScratch struct {
	idx         []int32
	labels      []SketchEdgeLabel
	tree        []SketchEdgeLabel
	faults      []SketchEdgeLabel
	byUID       bool
	childLabels []ancestry.Label
	cuts        []uint64 // the cancellation records of PrepareFaults
	f           eid.Fields
	stack       []int32
	raw         sketch.Slab // raw[i]: Sketch(V(T_child)) of tree fault i
	comps       sketch.Slab // comps[c]: component c's sketch, Steps 2+3
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
