// Package sketch implements the graph sketches of Section 3.2.1
// (Ahn–Guha–McGregor style linear sketches, adapted per [DP17] with
// pairwise-independent sampling).
//
// A sketch is a matrix of XOR cells: Units basic sketch units (one per
// Borůvka phase; fresh randomness per phase, as required in Step 4 of the
// decoder), each with Levels geometrically sampled edge sets
// E_{i,0} ⊇ E_{i,1} ⊇ … where E_{i,j} samples each edge with probability
// 2^-j via a pairwise-independent hash of the edge's UID. Each cell holds
// the XOR of the extended identifiers (package eid) of the sampled edges.
//
// Sketches are linear: the sketch of a vertex set is the XOR of its
// vertices' sketches, and internal edges cancel, so a cell holding exactly
// one identifier exposes an outgoing edge of the set (Lemma 3.13, found by
// the Lemma 3.10 validity test).
package sketch

import (
	"fmt"
	"math/bits"

	"ftrouting/internal/eid"
	"ftrouting/internal/graph"
	"ftrouting/internal/xrand"
)

// Params sizes a sketch.
type Params struct {
	Units  int // L = Theta(log n) basic units; one Boruvka phase each
	Levels int // log m + O(1) geometric sampling levels
}

// DefaultParams returns the paper's sizing for an instance with n vertices
// and m edges: Units = max(12, 2*ceil(log2 n)) so that the Borůvka
// simulation has enough fresh phases, and Levels = ceil(log2 m) + 2 so that
// every outgoing-edge count down to 1 is probed.
func DefaultParams(n, m int) Params {
	lg := func(x int) int {
		if x < 1 {
			x = 1
		}
		return bits.Len(uint(x))
	}
	units := 2 * lg(n)
	if units < 12 {
		units = 12
	}
	return Params{Units: units, Levels: lg(m) + 2}
}

// Validate checks the parameters are usable.
func (p Params) Validate() error {
	if p.Units < 1 || p.Levels < 1 {
		return fmt.Errorf("sketch: params must be positive, got %+v", p)
	}
	return nil
}

// Sketch is the cell matrix, stored row-major by (unit, level), each cell
// being layout.Words() words.
type Sketch []uint64

// Encoder produces the extended identifier of a local edge. It is supplied
// by the labeling scheme so that routing payloads (ports, tree labels) can
// be embedded without this package knowing about them.
type Encoder func(e graph.EdgeID) []uint64

// Engine computes sketches of one graph instance under one unit-seed (one
// of the f' independent copies of Section 5.2). It recomputes sketch
// content on demand from the instance and the seeds — the flyweight scheme
// described in DESIGN.md: the bits produced are exactly the bits the
// paper's labels would store.
type Engine struct {
	g      *graph.Graph
	layout *eid.Layout
	params Params
	seedID uint64
	hashes []xrand.Pairwise
	enc    Encoder
	uids   []uint64 // per local edge, cached (hash keys for sampling)
}

// NewEngine builds an engine. seedID keys the UIDs (shared across the f'
// copies, per Section 5.2: "the seed S_ID ... is fixed in the f'
// applications"); unitSeed keys the sampling hashes (fresh per copy).
func NewEngine(g *graph.Graph, layout *eid.Layout, params Params, seedID, unitSeed uint64, enc Encoder) (*Engine, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		g:      g,
		layout: layout,
		params: params,
		seedID: seedID,
		hashes: make([]xrand.Pairwise, params.Units),
		enc:    enc,
		uids:   make([]uint64, g.M()),
	}
	for i := range e.hashes {
		e.hashes[i] = xrand.NewPairwise(xrand.DeriveSeed(unitSeed, uint64(i)))
	}
	for id := graph.EdgeID(0); int(id) < g.M(); id++ {
		ge := g.Edge(id)
		e.uids[id] = eid.UID(seedID, ge.U, ge.V)
	}
	return e, nil
}

// Params returns the engine's sizing.
func (e *Engine) Params() Params { return e.params }

// Layout returns the identifier layout.
func (e *Engine) Layout() *eid.Layout { return e.layout }

// SeedID returns the UID seed (part of every tree-edge label).
func (e *Engine) SeedID() uint64 { return e.seedID }

// Words returns the total word count of one sketch.
func (e *Engine) Words() int { return e.params.Units * e.params.Levels * e.layout.Words() }

// Bits returns the sketch size in bits — the O(log^3 n) of Theorem 3.7.
func (e *Engine) Bits() int { return 64 * e.Words() }

// NewSketch returns an all-zero sketch.
func (e *Engine) NewSketch() Sketch { return make(Sketch, e.Words()) }

// cell returns the word slice of cell (unit, level).
func (e *Engine) cell(s Sketch, unit, level int) []uint64 {
	w := e.layout.Words()
	off := (unit*e.params.Levels + level) * w
	return s[off : off+w]
}

// MaxLevel returns the deepest sampling level of the edge with the given
// UID in the given unit. Both labeler and decoder call this — the decoder
// knows the UID from the edge's extended identifier and the seed from the
// label, which is what makes fault cancellation (Step 3) possible.
func (e *Engine) MaxLevel(unit int, uid uint64) int {
	return e.hashes[unit].MaxLevel(uid, e.params.Levels)
}

// xorEdge XORs the identifier `w` of an edge with the given UID into every
// cell that samples it.
func (e *Engine) xorEdge(s Sketch, uid uint64, w []uint64) {
	for unit := 0; unit < e.params.Units; unit++ {
		ml := e.MaxLevel(unit, uid)
		for level := 0; level <= ml; level++ {
			eid.Xor(e.cell(s, unit, level), w)
		}
	}
}

// CancelEdge removes (or equivalently, re-adds — XOR is an involution) the
// edge described by identifier words w with the given UID. Step 3 of the
// decoder uses this to erase faulty edges from component sketches.
func (e *Engine) CancelEdge(s Sketch, uid uint64, w []uint64) {
	e.xorEdge(s, uid, w)
}

// edgeWords returns the encoded identifier of local edge id. Memoization
// lives in the Encoder supplied by the labeling scheme (which shares it
// across the f' copies and guards it for concurrent queries).
func (e *Engine) edgeWords(id graph.EdgeID) []uint64 {
	return e.enc(id)
}

// AddVertex XORs the sketch of vertex v (the XOR of its incident sampled
// identifiers, Eq. 2) into s.
func (e *Engine) AddVertex(s Sketch, v int32) {
	for _, a := range e.g.Adj(v) {
		e.xorEdge(s, e.uids[a.E], e.edgeWords(a.E))
	}
}

// VertexSketch returns Sketch_G(v).
func (e *Engine) VertexSketch(v int32) Sketch {
	s := e.NewSketch()
	e.AddVertex(s, v)
	return s
}

// SubtreeSketch returns Sketch_G(V(T_v)): the XOR of the vertex sketches
// over the subtree of v in t. This is the content a tree-edge label stores
// (Section 3.2.1, "Sketch(V(T_u)), Sketch(V(T_v))").
func (e *Engine) SubtreeSketch(t *graph.Tree, v int32) Sketch {
	s := e.NewSketch()
	stack := []int32{v}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		e.AddVertex(s, u)
		stack = append(stack, t.Children[u]...)
	}
	return s
}

// Xor XORs other into s (sketch linearity; used to merge components).
func (s Sketch) Xor(other Sketch) {
	for i := range s {
		s[i] ^= other[i]
	}
}

// SetXor overwrites s with a XOR b, leaves a and b as they are, and
// reports whether the result is nonzero. By linearity that is the sketch of
// the union of two disjoint vertex sets (a Borůvka merge that keeps both
// inputs); a zero union has no outgoing edge left to find.
func (s Sketch) SetXor(a, b Sketch) bool {
	a, b = a[:len(s)], b[:len(s)]
	var or uint64
	for i := range s {
		s[i] = a[i] ^ b[i]
		or |= s[i]
	}
	return or != 0
}

// Clone returns a copy.
func (s Sketch) Clone() Sketch {
	out := make(Sketch, len(s))
	copy(out, s)
	return out
}

// CloneInto copies s into dst, reusing dst's capacity when it suffices, and
// returns the copy. Hot decode paths call this with pooled scratch so warm
// queries never allocate; the returned slice aliases dst unless it had to
// grow.
func (s Sketch) CloneInto(dst Sketch) Sketch {
	if cap(dst) < len(s) {
		dst = make(Sketch, len(s))
	}
	dst = dst[:len(s)]
	copy(dst, s)
	return dst
}

// Reset zeroes the sketch in place so its storage can be reused.
func (s Sketch) Reset() {
	for i := range s {
		s[i] = 0
	}
}

// IsZero reports whether the sketch is all zero.
func (s Sketch) IsZero() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Slab backs a run of equally sized sketches with one contiguous []uint64
// allocation, so neighbouring sketches share cache lines (the hub-labeling
// "flat arrays, scanned linearly" shape).
type Slab struct {
	words int
	buf   []uint64
}

// At returns the i-th sketch, aliasing the slab's storage.
func (sl *Slab) At(i int) Sketch { return Sketch(sl.buf[i*sl.words : (i+1)*sl.words]) }

// Resize makes sl a slab of count sketches of words words each, reusing
// its buffer when it is large enough — zero heap allocations once sl has
// reached its high-water mark. The contents are unspecified: callers
// overwrite every sketch they read.
func (sl *Slab) Resize(words, count int) {
	sl.words = words
	if cap(sl.buf) < words*count {
		sl.buf = make([]uint64, words*count)
	}
	sl.buf = sl.buf[:words*count]
}

// FindOutgoingInto scans the cells of the given basic unit for one that
// holds a single valid identifier and decodes it into f, reusing f's
// extra-payload capacity; f is only written on success (Lemma 3.13). With
// constant probability per unit some level isolates exactly one outgoing
// edge; levels are scanned from deepest to shallowest so sparse levels are
// preferred. On an all-zero sketch no cell validates, so decoders skip
// zero sketches without calling it.
func (e *Engine) FindOutgoingInto(s Sketch, unit int, f *eid.Fields) bool {
	for level := e.params.Levels - 1; level >= 0; level-- {
		if e.layout.ValidateInto(e.cell(s, unit, level), e.seedID, f) {
			return true
		}
	}
	return false
}
