package core

import (
	"fmt"
	"slices"
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
	// empty is the shared context of every fault set without a tree
	// fault, whose decodes read only that T is intact, so preparing one
	// allocates nothing.
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
	s.empty = SketchFaultContext{scheme: s}
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
// (the Boruvka simulation). A pair is separated by the faults iff some
// tree fault has exactly one of its endpoints on its child side; every
// other pair is connected through T and needs no sketch (Claim 3.14). So
// preparation keeps the tree faults' child-side ancestry labels, and the
// component sketches are built on the first decode of a pair the faults
// separate, once per context, one basic unit at a time as Borůvka phases
// first read them (DESIGN.md §11, §12). The context is safe for
// concurrent Decode calls; decodes draw their working memory from a
// package-wide scratch pool, so a cached context holds only its own
// component sketches.
type SketchFaultContext struct {
	scheme *SketchScheme
	copy   int
	// tree holds the distinct tree faults in first-occurrence order:
	// component i+1 of T\F is the child side of tree[i]. others holds the
	// non-tree faults of a context PrepareFaults made from labels. Both are
	// fixed at preparation and carved from faultBuf when they fit.
	tree, others []ctxFault
	faultBuf     [4]ctxFault
	// sub and ids are the instance and the global fault ids of a context
	// InstanceFaults prepared; build restricts the ids again for the
	// non-tree faults.
	sub *graph.Subgraph
	ids []graph.EdgeID

	// The rest is written on the first separated decode (build) and as
	// Borůvka phases first read the sketches' units (fill).
	once   sync.Once
	err    error
	builds atomic.Int32 // times build ran; tests read it
	// ct is the component tree (Step 1): built by PrepareFaults from
	// labels, since it can fail there, and by build otherwise.
	ct *comptree.Tree
	// comps[c] is the cancelled sketch of component c (Steps 2+3 applied),
	// one slot of a contiguous slab, or nil when c has no edge to another
	// component of G\F. Decodes only read it: a Borůvka merge writes its
	// union into the decoding goroutine's scratch.
	comps []sketch.Sketch
	// cuts lists the edges between components that are not faults, each
	// as cu<<32|cv and its identifier words, to fill the sketches' units
	// from.
	cuts []uint64
	// filled counts the units 0..filled-1 written in every component
	// sketch; fillMu serializes the fills.
	filled atomic.Int32
	fillMu sync.Mutex
}

// ctxFault is one fault of a context, by local edge id, and for a tree
// fault the ancestry label of its child-side endpoint.
type ctxFault struct {
	e     graph.EdgeID
	child ancestry.Label
}

// inAny reports whether some label of ls is an ancestor of l.
func inAny(ls []ancestry.Label, l ancestry.Label) bool {
	for _, k := range ls {
		if k.IsAncestorOf(l) {
			return true
		}
	}
	return false
}

// newFaultContext returns a context with room for n faults.
func (s *SketchScheme) newFaultContext(copy, n int) *SketchFaultContext {
	ctx := &SketchFaultContext{scheme: s, copy: copy}
	if n <= len(ctx.faultBuf) {
		ctx.tree = ctx.faultBuf[:0]
	} else {
		ctx.tree = make([]ctxFault, 0, n)
	}
	return ctx
}

// pathAdj is one recovery-edge incidence in the path-assembly BFS.
type pathAdj struct {
	rec   int32 // index into the recoveries
	other int32 // neighbouring component
}

// decodeScratch is the per-goroutine scratch of SketchFaultContext.decode:
// the group sketches of a phase and the slab of merged ones, the
// candidate/recovery slices and the path-assembly buffers, all retained
// across queries so warm decodes perform zero heap allocations. Every
// buffer is resized to the context at hand, so one pool serves every
// context of every scheme: a scratch grows to the largest component count
// and sketch size it has seen and is then reused allocation-free.
type decodeScratch struct {
	merged     sketch.Slab
	groups     []sketch.Sketch
	owned      []bool
	bnd        []int32
	uf         unionfind.UF
	cands      []eid.Fields
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
func nextCand(cands []eid.Fields) ([]eid.Fields, *eid.Fields) {
	if len(cands) < cap(cands) {
		cands = cands[:len(cands)+1]
	} else {
		cands = append(cands, eid.Fields{})
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

// PrepareFaults prepares a fault set, given by its labels, for repeated
// decodes. It runs what can fail: the child-side ancestry labels of the
// tree faults and Step 1 of the decoder, the component tree of T\F. It
// keeps the faults' local ids; Steps 2-3, (2) each component's sketch and
// (3) the cancellation of the faulty edges, run on the first decode of a
// pair the faults separate. copy selects which of the f' independent
// sketch copies the context is bound to (Section 5.2 uses a fresh copy per
// routing iteration).
func (s *SketchScheme) PrepareFaults(faults []SketchEdgeLabel, copy int) (*SketchFaultContext, error) {
	if copy < 0 || copy >= len(s.engines) {
		return nil, fmt.Errorf("core: copy %d out of range [0,%d)", copy, len(s.engines))
	}
	sc := prepPool.Get().(*prepScratch)
	defer prepPool.Put(sc)
	faults = dedupSketchLabels(faults, sc)
	if !slices.ContainsFunc(faults, func(l SketchEdgeLabel) bool { return l.IsTree }) {
		return &s.empty, nil // T is intact
	}
	ctx := s.newFaultContext(copy, len(faults))
	childLabels := sc.childLabels[:0]
	for _, l := range faults {
		if !l.IsTree {
			continue
		}
		s.layout.DecodeInto(l.EID, &sc.f)
		child, _, ok := ancestry.ChildOf(sc.f.AncU, sc.f.AncV)
		if !ok {
			return nil, fmt.Errorf("core: tree-fault label %d has non-nested endpoint intervals", len(childLabels))
		}
		childLabels = append(childLabels, child)
		ctx.tree = append(ctx.tree, ctxFault{e: l.E, child: child})
	}
	sc.childLabels = childLabels
	// Step 1: component tree of T \ F_T from the child-side ancestry
	// labels (Claim 3.14).
	ct, err := comptree.Build(childLabels)
	if err != nil {
		return nil, err
	}
	ctx.ct = ct
	all := ctx.tree
	for _, l := range faults {
		if !l.IsTree {
			all = append(all, ctxFault{e: l.E})
		}
	}
	ctx.others = all[len(ctx.tree):]
	return ctx, nil
}

// build runs, once per context, the work only a separated pair needs: the
// component tree where preparation deferred it, then Steps 2-3 up to the
// point where the sketches' units can be filled (fill). A component's
// sketch is the XOR over the edges that leave it, minus the faults
// (Claim 3.15 after Step 3's cancellation, by linearity), so build lists
// those edges once: it walks every component but the root's, whose edges
// to other components all have an endpoint in one of them, and keeps each
// non-fault edge between two components. It runs in the pooled scratch and
// keeps the component slice and one allocation for the edge list and a
// slab of exactly the nonzero sketches (DESIGN.md §12).
func (ctx *SketchFaultContext) build() error {
	ctx.once.Do(func() {
		sc := prepPool.Get().(*prepScratch)
		defer prepPool.Put(sc)
		ctx.err = ctx.buildIn(sc)
		ctx.builds.Add(1)
	})
	return ctx.err
}

func (ctx *SketchFaultContext) buildIn(sc *prepScratch) error {
	s := ctx.scheme
	// F by sorted local id: an edge between components that is a fault
	// is in no sketch.
	fs := sc.fs[:0]
	childLabels := sc.childLabels[:0]
	for _, f := range ctx.tree {
		fs = append(fs, f.e)
		childLabels = append(childLabels, f.child)
	}
	for _, f := range ctx.others {
		fs = append(fs, f.e)
	}
	for _, id := range ctx.ids {
		if le, ok := ctx.sub.LocalEdge(id); ok && !s.tree.InTree[le] {
			fs = append(fs, le)
		}
	}
	slices.Sort(fs)
	sc.fs, sc.childLabels = fs, childLabels
	if ctx.ct == nil {
		// Step 1 with the numbering of the first reach, whose check
		// (step1Err) leaves Build nothing to reject.
		ct, err := comptree.Build(childLabels)
		if err != nil {
			return err
		}
		ctx.ct = ct
	}
	ct := ctx.ct
	nc := ct.NumComps()
	// kids[start[c]:start[c+1]] are the child labels of the components
	// directly below c, where c's walk stops.
	start := slices.Grow(sc.start[:0], nc+1)[:nc+1]
	kids := slices.Grow(sc.kids[:0], nc-1)[:nc-1]
	deg := slices.Grow(sc.deg[:0], nc)[:nc]
	clear(start)
	clear(deg)
	sc.start, sc.kids, sc.deg = start, kids, deg
	for c := 1; c < nc; c++ {
		start[ct.Parent(int32(c))]++
	}
	for c := 1; c <= nc; c++ {
		start[c] += start[c-1]
	}
	for c := nc - 1; c >= 1; c-- {
		p := ct.Parent(int32(c))
		start[p]--
		kids[start[p]] = ctx.tree[c-1].child
	}
	// Walk component c from the child side x of its tree fault, and stop
	// at the components below it. An edge to component d != c is kept,
	// with its identifier words, from the walk of the smaller of c and d,
	// or of c when d is the root, which is not walked.
	eng := s.engines[ctx.copy]
	cw := s.layout.Words()
	cuts := sc.cuts[:0]
	for i, f := range ctx.tree {
		c := int32(i + 1)
		e := s.g.Edge(f.e)
		x := e.V
		if s.tree.Parent[x] != e.U {
			x = e.U
		}
		sc.out, sc.stack = s.leaving(x, f.child, kids[start[c]:start[c+1]], sc.out[:0], sc.stack)
		for _, a := range sc.out {
			d := ct.Locate(s.anc[a.To])
			if d != comptree.RootComp && d < c {
				continue
			}
			if _, fault := slices.BinarySearch(fs, a.E); fault {
				continue
			}
			cuts = append(cuts, uint64(c)<<32|uint64(d))
			cuts = append(cuts, eng.EdgeWords(a.E)[:cw]...)
			deg[c]++
			deg[d]++
		}
	}
	sc.cuts = cuts

	nonzero := 0
	for _, d := range deg {
		if d > 0 {
			nonzero++
		}
	}
	words := eng.Words()
	buf := make([]uint64, len(cuts)+nonzero*words)
	ctx.cuts = buf[:copy(buf, cuts):len(cuts)]
	slab := buf[len(cuts):]
	comps := make([]sketch.Sketch, nc)
	for c, d := range deg {
		if d > 0 {
			comps[c], slab = slab[:words], slab[words:]
		}
	}
	ctx.comps = comps
	return nil
}

// leaving appends to out the arcs that leave the component whose
// vertices are the subtree of x, with label top, minus the subtrees of
// the labels below, and returns out and stack for reuse. It walks only
// that component, on the caller's stack.
func (s *SketchScheme) leaving(x int32, top ancestry.Label, below []ancestry.Label, out []graph.Arc, stack []int32) ([]graph.Arc, []int32) {
	g, anc, children := s.g, s.anc, s.tree.Children
	stack = append(stack[:0], x)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range g.Adj(u) {
			if l := anc[a.To]; !top.IsAncestorOf(l) || len(below) > 0 && inAny(below, l) {
				out = append(out, a)
			}
		}
		for _, y := range children[u] {
			if !inAny(below, anc[y]) {
				stack = append(stack, y)
			}
		}
	}
	return out, stack
}

// fill writes units 0..unit of every component sketch that no decode has
// written yet. A decode reads unit i only after fill(i) returns, and a
// fill writes only units at or past the filled count that decodes load, so
// units already read are never written again.
func (ctx *SketchFaultContext) fill(unit int) {
	if int(ctx.filled.Load()) > unit {
		return
	}
	ctx.fillMu.Lock()
	defer ctx.fillMu.Unlock()
	eng := ctx.scheme.engines[ctx.copy]
	cw := ctx.scheme.layout.Words()
	for u := int(ctx.filled.Load()); u <= unit; u++ {
		for c := ctx.cuts; len(c) > 0; c = c[1+cw:] {
			eng.XorCrossingUnit(ctx.comps[c[0]>>32], ctx.comps[uint32(c[0])], u, c[1:1+cw])
		}
		ctx.filled.Store(int32(u + 1))
	}
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
	if ctx.separates(sv.Anc, tv.Anc) {
		return ctx.separated(sv, tv, wantPath, p)
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

// separates reports whether a and b lie in different components of T\F:
// whether some tree fault has exactly one of them in its child's subtree.
func (ctx *SketchFaultContext) separates(a, b ancestry.Label) bool {
	for _, f := range ctx.tree {
		if f.child.IsAncestorOf(a) != f.child.IsAncestorOf(b) {
			return true
		}
	}
	return false
}

// separated runs the Boruvka simulation (Step 4) for a pair the faults
// separate over the component sketches, which it never writes.
func (ctx *SketchFaultContext) separated(sv, tv SketchVertexLabel, wantPath bool, p *SuccinctPath) (Verdict, error) {
	if err := ctx.build(); err != nil {
		return Verdict{}, err
	}
	eng := ctx.scheme.engines[ctx.copy]
	ct, comps := ctx.ct, ctx.comps
	cs, ctc := ct.Locate(sv.Anc), ct.Locate(tv.Anc)
	nc := int32(ct.NumComps())
	sc := decodePool.Get().(*decodeScratch)
	defer decodePool.Put(sc)
	// A group's sketch is the XOR of its components' sketches, and phase i
	// reads only unit i of it. So each phase takes the unit of a group of
	// one nonzero component straight from the context, and XORs the units
	// of a larger group into the next scratch slot; no merge writes a unit
	// that no phase reads.
	sc.merged.Resize(eng.UnitWords(), int(nc))
	groups := slices.Grow(sc.groups[:0], int(nc))[:nc]
	owned := slices.Grow(sc.owned[:0], int(nc))[:nc]
	sc.groups, sc.owned = groups, owned

	// A group that no edge between components leaves has a zero sketch in
	// every unit: it finds no edge, and no group finds an edge into it. So
	// bnd counts those edges per group whenever the groups change, and a
	// group with none is skipped. Once the group of s or t has none, no
	// phase left can join them, and the verdict is the one all Units
	// phases reach.
	bnd := slices.Grow(sc.bnd[:0], int(nc))[:nc]
	sc.bnd = bnd
	cw := ctx.scheme.layout.Words()

	// Step 4: Boruvka over the components with a fresh basic unit per
	// phase. Group sketches live at the union-find roots.
	sc.uf.Reset(int(nc))
	uf := &sc.uf
	sc.recoveries = sc.recoveries[:0]
	units := eng.Params().Units
	phases := 0
	joined := true
	for phase := 0; phase < units && !uf.Same(cs, ctc); phase++ {
		if joined {
			clear(bnd)
			for c := ctx.cuts; len(c) > 0; c = c[1+cw:] {
				if ru, rv := uf.Find(int32(c[0]>>32)), uf.Find(int32(uint32(c[0]))); ru != rv {
					bnd[ru]++
					bnd[rv]++
				}
			}
			if bnd[uf.Find(cs)] == 0 || bnd[uf.Find(ctc)] == 0 {
				phases = units
				break
			}
			joined = false
		}
		phases++
		ctx.fill(phase)
		clear(groups)
		clear(owned)
		slots := 0
		for c := int32(0); c < nc; c++ {
			r := uf.Find(c)
			if comps[c] == nil || bnd[r] == 0 {
				continue
			}
			u := eng.Unit(comps[c], phase)
			switch {
			case groups[r] == nil:
				groups[r] = u
			case !owned[r]:
				m := sc.merged.At(slots)
				slots++
				m.SetXor(groups[r], u)
				groups[r], owned[r] = m, true
			default:
				groups[r].Xor(u)
			}
		}
		sc.cands = sc.cands[:0]
		for _, g := range groups {
			// A group with no nonzero component has no outgoing edge.
			if g == nil {
				continue
			}
			var cand *eid.Fields
			sc.cands, cand = nextCand(sc.cands)
			if !eng.FindOutgoingInUnit(g, cand) {
				sc.cands = sc.cands[:len(sc.cands)-1]
			}
		}
		for i := range sc.cands {
			cand := &sc.cands[i]
			cu := ct.Locate(cand.AncU)
			cv := ct.Locate(cand.AncV)
			ru, rv := uf.Find(cu), uf.Find(cv)
			if ru == rv {
				continue
			}
			uf.Union(ru, rv)
			joined = true
			var rec *recoveryEdge
			sc.recoveries, rec = nextRecovery(sc.recoveries)
			rec.cu, rec.cv = cu, cv
			setFieldsPreserving(&rec.fields, *cand)
		}
	}

	clear(groups) // the pooled scratch must not pin this context's slab

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
// label slice, child labels, decoded fault fields) and of build (sorted
// fault ids, component flags and degrees, the walk's stack and the edges
// between components), pooled package-wide so the hot prepare path
// performs a sort-and-compact instead of allocating a map per call. The
// faults/byUID fields parameterize the sort.Interface implementation.
type prepScratch struct {
	idx         []int32
	labels      []SketchEdgeLabel
	faults      []SketchEdgeLabel
	byUID       bool
	childLabels []ancestry.Label
	f           eid.Fields
	fs          []graph.EdgeID
	start       []int32
	kids        []ancestry.Label
	deg         []int32
	stack       []int32
	out         []graph.Arc
	cuts        []uint64
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
