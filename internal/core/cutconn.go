// Package core implements the paper's primary contribution: two
// fault-tolerant connectivity labeling schemes for general graphs.
//
//   - The cut-based scheme (this file; Section 3.1, Theorem 3.6) combines
//     cycle-space sampling with ancestry labels. Labels are O(f + log n)
//     bits; decoding reduces to GF(2) linear-system solvability
//     (Lemma 3.5) and runs in poly(f, log n).
//
//   - The sketch-based scheme (sketchconn.go; Section 3.2, Theorem 3.7)
//     combines graph sketches with ancestry labels. Labels are O(log^3 n)
//     bits independent of f; decoding simulates Borůvka over the
//     components of T\F and can also emit a succinct s-t path
//     (Lemma 3.17), which is what the routing schemes of Section 5 build
//     on.
//
// Both schemes assume the labeled graph is connected with a spanning tree;
// the public facade applies them per connected component and tags labels
// with the component id, exactly as the paper prescribes (Section 3 intro).
package core

import (
	"fmt"
	"sync"

	"ftrouting/internal/ancestry"
	"ftrouting/internal/bitvec"
	"ftrouting/internal/cyclespace"
	"ftrouting/internal/graph"
	"ftrouting/internal/xrand"
)

// CutOptions configures BuildCut.
type CutOptions struct {
	// MaxFaults is the fault bound f the labels must support.
	MaxFaults int
	// Bits overrides the cycle-space label width b; 0 chooses the paper's
	// b = f + c*log n (with the constant below).
	Bits int
	// AllQueries widens the labels to b = O(f log n) so that, as remarked
	// after Lemma 1.7, the labeling is correct for *all* queries
	// simultaneously w.h.p. (union bound over the O(n^f) subsets of size
	// at most f), not just per-query.
	AllQueries bool
	// Seed drives all randomness.
	Seed uint64
}

// cutSlackBits is the c*log n + slack part of b = f + O(log n): we use
// 2*ceil(log2(n+1)) + 16, giving per-query error below 2^-16 * 2^-2log(n).
const cutSlackBits = 16

// autoCutBits returns the default label width for n vertices and f faults:
// f + O(log n) per-query, or (f+2)*O(log n) for the all-queries variant.
func autoCutBits(n, f int, allQueries bool) int {
	lg := 0
	for v := n + 1; v > 0; v >>= 1 {
		lg++
	}
	if allQueries {
		return (f+2)*lg + cutSlackBits
	}
	return f + 2*lg + cutSlackBits
}

// CutScheme holds the labeling of one connected graph under the cut-based
// scheme of Theorem 3.6.
type CutScheme struct {
	g    *graph.Graph
	tree *graph.Tree
	anc  []ancestry.Label
	phi  *cyclespace.Labels
	f    int
	b    int
}

// CutVertexLabel is the O(log n)-bit vertex label: the ancestry label of
// the vertex in the spanning tree.
type CutVertexLabel struct {
	Anc ancestry.Label
}

// CutEdgeLabel is the O(f + log n)-bit edge label: the cycle-space label
// phi(e), the ancestry labels of both endpoints, and the tree-edge bit.
type CutEdgeLabel struct {
	Phi        bitvec.Vec
	AncU, AncV ancestry.Label
	IsTree     bool
}

// BitLen returns the label length in bits (paper accounting).
func (l CutEdgeLabel) BitLen(n int) int {
	return l.Phi.Len() + 2*ancestry.BitLen(n) + 1
}

// BitLen returns the label length in bits (paper accounting).
func (l CutVertexLabel) BitLen(n int) int { return ancestry.BitLen(n) }

// BuildCut labels the graph spanned by tree. The tree must span all of g's
// vertices (apply per component otherwise). Construction time is
// O((m+n) * b/64) word operations — the paper's O((m+n)b).
func BuildCut(g *graph.Graph, tree *graph.Tree, opts CutOptions) (*CutScheme, error) {
	if tree.Size() != g.N() {
		return nil, fmt.Errorf("core: tree spans %d of %d vertices; label components separately", tree.Size(), g.N())
	}
	if opts.MaxFaults < 0 {
		return nil, fmt.Errorf("core: negative fault bound %d", opts.MaxFaults)
	}
	b := opts.Bits
	if b == 0 {
		b = autoCutBits(g.N(), opts.MaxFaults, opts.AllQueries)
	}
	phi, err := cyclespace.Assign(tree, b, xrand.DeriveSeed(opts.Seed, 0xC1C1E))
	if err != nil {
		return nil, err
	}
	return &CutScheme{
		g:    g,
		tree: tree,
		anc:  ancestry.Build(tree),
		phi:  phi,
		f:    opts.MaxFaults,
		b:    b,
	}, nil
}

// Bits returns the cycle-space width b in use.
func (s *CutScheme) Bits() int { return s.b }

// Tree returns the spanning tree (persistence serializes it so a loaded
// scheme rebuilds on the identical tree).
func (s *CutScheme) Tree() *graph.Tree { return s.tree }

// VertexLabel returns the label of v.
func (s *CutScheme) VertexLabel(v int32) CutVertexLabel {
	return CutVertexLabel{Anc: s.anc[v]}
}

// EdgeLabel returns the label of edge id.
func (s *CutScheme) EdgeLabel(id graph.EdgeID) CutEdgeLabel {
	e := s.g.Edge(id)
	return CutEdgeLabel{
		Phi:    s.phi.Phi(id),
		AncU:   s.anc[e.U],
		AncV:   s.anc[e.V],
		IsTree: s.tree.InTree[id],
	}
}

// dedupCutLabels removes duplicate fault labels (same edge passed twice),
// identified by the endpoint ancestry pair.
func dedupCutLabels(faults []CutEdgeLabel) []CutEdgeLabel {
	seen := make(map[[2]uint32]bool, len(faults))
	out := faults[:0:0]
	for _, l := range faults {
		k := [2]uint32{l.AncU.In, l.AncV.In}
		if k[0] > k[1] {
			k[0], k[1] = k[1], k[0]
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, l)
	}
	return out
}

// cutPrefix classifies a fault edge for Lemma 3.5: returns (onS, onT) —
// whether the edge lies on the tree path root-s / root-t. Only tree edges
// can be on a tree path; the child endpoint decides membership.
func cutPrefix(l CutEdgeLabel, s, t ancestry.Label) (onS, onT bool) {
	if !l.IsTree {
		return false, false
	}
	child, _, ok := ancestry.ChildOf(l.AncU, l.AncV)
	if !ok {
		return false, false // malformed label; treated as non-tree
	}
	return ancestry.OnRootPath(child, s), ancestry.OnRootPath(child, t)
}

// CutFaultContext is a fault set preprocessed for repeated cut-based
// decodes: deduplication and the phi part of the extended columns depend
// only on F, so a batch of pair queries under a fixed fault set shares
// them and each Decode only stamps the 2-bit r-s / r-t path prefix and
// solves. The context is immutable after PrepareCutFaults and safe for
// concurrent Decode calls.
type CutFaultContext struct {
	faults []CutEdgeLabel // deduplicated
	b      int            // max phi width among the faults
	// base[i] is the extended column phi'(e_i) with the two prefix bits
	// cleared; Decode clones before stamping the per-pair prefix.
	base []bitvec.Vec
}

// cutScratch is the per-goroutine scratch of CutFaultContext.Decode:
// column clones, targets and the GF(2) solver. Every buffer is resized to
// the decoding context's system (rows = b+2, cols = |F|) on use, so once
// a scratch has served the widest context it sees, warm Decode calls
// perform zero heap allocations.
type cutScratch struct {
	cols   []bitvec.Vec
	w1, w2 bitvec.Vec
	solver bitvec.Solver
}

// cutPool is the package-wide cutScratch pool. As with decodePool,
// pooling per package rather than per context keeps the scratch count at
// the number of decoding goroutines, and a freshly loaded shard's
// contexts decode on warm scratch instead of starting from an empty pool.
var cutPool = sync.Pool{New: func() any { return new(cutScratch) }}

// PrepareCutFaults runs the per-fault-set part of DecodeCut once.
func PrepareCutFaults(faults []CutEdgeLabel) *CutFaultContext {
	faults = dedupCutLabels(faults)
	ctx := &CutFaultContext{faults: faults}
	if len(faults) == 0 {
		return ctx
	}
	// Labels of one scheme share a width; tolerate adversarial mixed-width
	// inputs by padding to the maximum (short labels read as zero bits)
	// rather than panicking.
	for _, l := range faults {
		if l.Phi.Len() > ctx.b {
			ctx.b = l.Phi.Len()
		}
	}
	ctx.base = make([]bitvec.Vec, len(faults))
	for i, l := range faults {
		col := bitvec.New(ctx.b + 2)
		for j := 0; j < l.Phi.Len(); j++ {
			col.Set(2+j, l.Phi.Get(j))
		}
		ctx.base[i] = col
	}
	return ctx
}

// Decode answers one pair against the prepared fault set; results are
// identical to DecodeCut with the same fault set.
func (ctx *CutFaultContext) Decode(sL, tL CutVertexLabel) bool {
	if sL.Anc == tL.Anc {
		return true // same vertex
	}
	if len(ctx.faults) == 0 {
		return true
	}
	sc := cutPool.Get().(*cutScratch)
	defer cutPool.Put(sc)
	if cap(sc.cols) < len(ctx.faults) {
		grown := make([]bitvec.Vec, len(ctx.faults))
		copy(grown, sc.cols[:cap(sc.cols)])
		sc.cols = grown
	}
	cols := sc.cols[:len(ctx.faults)]
	for i, l := range ctx.faults {
		col := ctx.base[i].CloneInto(cols[i])
		onS, onT := cutPrefix(l, sL.Anc, tL.Anc)
		// phi'(e) prefix (Section 3.1.3): 10 if on r-s only, 01 if on r-t
		// only, 00 otherwise.
		if onS && !onT {
			col.Set(0, true)
		}
		if onT && !onS {
			col.Set(1, true)
		}
		cols[i] = col
	}
	sc.w1 = bitvec.MakeInto(sc.w1, ctx.b+2)
	sc.w1.Set(0, true)
	sc.w2 = bitvec.MakeInto(sc.w2, ctx.b+2)
	sc.w2.Set(1, true)
	if _, ok := sc.solver.Solve(cols, sc.w1); ok {
		return false
	}
	if _, ok := sc.solver.Solve(cols, sc.w2); ok {
		return false
	}
	return true
}

// DecodeCut decides, from labels alone, whether s and t are connected in
// G\F (Theorem 3.6). It builds the extended labels phi'(e) with the 2-bit
// r-s / r-t path prefix and checks solvability of A x = w_1 and A x = w_2
// over GF(2) (Lemma 3.5): solvable means some F' ⊆ F is an induced edge
// cut separating s from t, hence disconnected.
//
// The answer errs (declares disconnected pairs connected, never the
// converse... precisely: the cycle-space test has one-sided error per
// subset, so DecodeCut may declare a connected pair disconnected) with
// probability at most 2^f * 2^-b per query.
func DecodeCut(sL, tL CutVertexLabel, faults []CutEdgeLabel) bool {
	return PrepareCutFaults(faults).Decode(sL, tL)
}

// DecodeCutNaive is the exponential-time decoder of Section 3.1.2 used for
// differential testing: it enumerates all subsets F' ⊆ F, checks each for
// being an induced edge cut via the cycle-space test, and applies the
// parity criterion of Corollary 3.4.
func DecodeCutNaive(sL, tL CutVertexLabel, faults []CutEdgeLabel) bool {
	if sL.Anc == tL.Anc {
		return true
	}
	faults = dedupCutLabels(faults)
	k := len(faults)
	if k == 0 {
		return true
	}
	if k > 20 {
		panic("core: DecodeCutNaive limited to 20 faults")
	}
	b := 0
	for _, l := range faults {
		if l.Phi.Len() > b {
			b = l.Phi.Len()
		}
	}
	for mask := 1; mask < 1<<uint(k); mask++ {
		acc := bitvec.New(b)
		nS, nT := 0, 0
		for i := 0; i < k; i++ {
			if mask>>uint(i)&1 == 0 {
				continue
			}
			acc.XorInPlace(pad(faults[i].Phi, b))
			onS, onT := cutPrefix(faults[i], sL.Anc, tL.Anc)
			if onS {
				nS++
			}
			if onT {
				nT++
			}
		}
		if acc.IsZero() && nS%2 != nT%2 {
			return false
		}
	}
	return true
}

// pad returns v extended with zero bits to length n (no copy if already n).
func pad(v bitvec.Vec, n int) bitvec.Vec {
	if v.Len() == n {
		return v
	}
	return bitvec.FromWords(n, v.Words())
}
