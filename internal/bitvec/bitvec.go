// Package bitvec implements fixed-length bit vectors over GF(2) and the
// linear-algebra routines behind the fast decoder of Section 3.1.3: the
// cycle-space labels phi(e) are GF(2) vectors, and deciding whether a fault
// set disconnects s from t reduces to the solvability of the systems
// A x = w_1 and A x = w_2 (Lemma 3.5).
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"

	"ftrouting/internal/xrand"
)

const wordBits = 64

// Vec is a bit vector of fixed length over GF(2). The zero value is an
// empty vector of length 0.
type Vec struct {
	n int
	w []uint64
}

// New returns an all-zero vector of n bits.
func New(n int) Vec {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return Vec{n: n, w: make([]uint64, Words(n))}
}

// Words returns the number of 64-bit words an n-bit vector occupies.
func Words(n int) int { return (n + wordBits - 1) / wordBits }

// View returns the n-bit vector stored in words, without copying: the
// vector and the caller share the words. words must be exactly Words(n)
// long with the bits beyond n clear; cap it at its length (a full slice
// expression) when it is carved from a larger slab.
func View(n int, words []uint64) Vec {
	if len(words) != Words(n) {
		panic(fmt.Sprintf("bitvec: %d words for a %d-bit view", len(words), n))
	}
	return Vec{n: n, w: words}
}

// Random returns a vector of n bits drawn uniformly from rng.
func Random(n int, rng *xrand.SplitMix64) Vec {
	v := New(n)
	v.Randomize(rng)
	return v
}

// Randomize overwrites v with bits drawn uniformly from rng, drawing the
// same words Random(v.Len(), rng) would.
func (v Vec) Randomize(rng *xrand.SplitMix64) {
	for i := range v.w {
		v.w[i] = rng.Next()
	}
	v.maskTail()
}

// FromWords builds an n-bit vector from raw words (copied). Bits beyond n
// are cleared.
func FromWords(n int, words []uint64) Vec {
	v := New(n)
	copy(v.w, words)
	v.maskTail()
	return v
}

// maskTail clears any bits beyond length n in the last word.
func (v *Vec) maskTail() {
	if v.n%wordBits != 0 && len(v.w) > 0 {
		v.w[len(v.w)-1] &= (1 << uint(v.n%wordBits)) - 1
	}
}

// Len returns the number of bits.
func (v Vec) Len() int { return v.n }

// Words exposes the underlying words (not a copy); callers must not mutate.
func (v Vec) Words() []uint64 { return v.w }

// Get reports bit i.
func (v Vec) Get(i int) bool {
	return v.w[i/wordBits]>>(uint(i)%wordBits)&1 == 1
}

// Set sets bit i to b.
func (v Vec) Set(i int, b bool) {
	if b {
		v.w[i/wordBits] |= 1 << (uint(i) % wordBits)
	} else {
		v.w[i/wordBits] &^= 1 << (uint(i) % wordBits)
	}
}

// Flip toggles bit i.
func (v Vec) Flip(i int) {
	v.w[i/wordBits] ^= 1 << (uint(i) % wordBits)
}

// XorInPlace adds (XORs) u into v. Both vectors must have equal length.
func (v Vec) XorInPlace(u Vec) {
	if v.n != u.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d != %d", v.n, u.n))
	}
	for i := range v.w {
		v.w[i] ^= u.w[i]
	}
}

// Xor returns a fresh vector equal to v XOR u.
func (v Vec) Xor(u Vec) Vec {
	out := v.Clone()
	out.XorInPlace(u)
	return out
}

// XorAll returns the XOR of all given vectors, which must share a length.
// It panics on an empty argument list (the length would be ambiguous).
func XorAll(vs ...Vec) Vec {
	if len(vs) == 0 {
		panic("bitvec: XorAll of no vectors")
	}
	out := vs[0].Clone()
	for _, v := range vs[1:] {
		out.XorInPlace(v)
	}
	return out
}

// IsZero reports whether every bit is zero.
func (v Vec) IsZero() bool {
	for _, w := range v.w {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether v and u have the same length and bits.
func (v Vec) Equal(u Vec) bool {
	if v.n != u.n {
		return false
	}
	for i := range v.w {
		if v.w[i] != u.w[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (v Vec) Clone() Vec {
	out := Vec{n: v.n, w: make([]uint64, len(v.w))}
	copy(out.w, v.w)
	return out
}

// CloneInto copies v into dst's storage, reusing its capacity when it
// suffices, and returns the copy. The hot-loop counterpart of Clone.
func (v Vec) CloneInto(dst Vec) Vec {
	if cap(dst.w) < len(v.w) {
		return v.Clone()
	}
	dst.w = dst.w[:len(v.w)]
	copy(dst.w, v.w)
	dst.n = v.n
	return dst
}

// MakeInto returns an all-zero n-bit vector reusing dst's storage when its
// capacity suffices. The hot-loop counterpart of New.
func MakeInto(dst Vec, n int) Vec {
	nw := (n + wordBits - 1) / wordBits
	if cap(dst.w) < nw {
		return New(n)
	}
	dst.w = dst.w[:nw]
	for i := range dst.w {
		dst.w[i] = 0
	}
	dst.n = n
	return dst
}

// OnesCount returns the number of set bits.
func (v Vec) OnesCount() int {
	c := 0
	for _, w := range v.w {
		c += bits.OnesCount64(w)
	}
	return c
}

// String renders the vector LSB-first, e.g. "1010".
func (v Vec) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// SolveXOR decides whether the GF(2) system
//
//	x_1*cols[0] XOR x_2*cols[1] XOR ... = target
//
// has a solution x in {0,1}^len(cols), and if so returns one solution as a
// bit vector over the columns. All cols and target must share a length.
//
// This is the primitive behind Lemma 3.5: the columns are the extended
// cycle-space labels phi'(e) of the faulty edges, and the targets are the
// unit prefixes w_1, w_2. Gaussian elimination over the (rows x cols)
// system costs O(rows * cols^2 / 64) word operations.
func SolveXOR(cols []Vec, target Vec) (x Vec, ok bool) {
	var s Solver
	return s.Solve(cols, target)
}

// Solver is reusable scratch for Solve: the augmented matrix, the pivot map
// and the solution vector are retained across calls, so repeated solves of
// similarly sized systems perform no heap allocations. The zero value is
// ready to use. A Solver is not safe for concurrent use; pool one per
// goroutine.
type Solver struct {
	aug   []Vec
	pivot []int
	x     Vec
}

// Solve is SolveXOR on reusable scratch. The returned solution vector
// aliases the solver's storage and is valid only until the next Solve call;
// clone it to retain it.
func (s *Solver) Solve(cols []Vec, target Vec) (x Vec, ok bool) {
	rows := target.Len()
	nc := len(cols)
	for i, c := range cols {
		if c.Len() != rows {
			panic(fmt.Sprintf("bitvec: column %d has length %d, want %d", i, c.Len(), rows))
		}
	}
	// Build augmented row-major matrix: row r has nc coefficient bits plus
	// one augmented bit.
	if cap(s.aug) < rows {
		grown := make([]Vec, rows)
		copy(grown, s.aug[:cap(s.aug)])
		s.aug = grown
	}
	aug := s.aug[:rows]
	for r := 0; r < rows; r++ {
		row := MakeInto(aug[r], nc+1)
		for c := 0; c < nc; c++ {
			if cols[c].Get(r) {
				row.Set(c, true)
			}
		}
		row.Set(nc, target.Get(r))
		aug[r] = row
	}
	// Forward elimination with partial (first-nonzero) pivoting.
	if cap(s.pivot) < nc {
		s.pivot = make([]int, nc)
	}
	pivotRowOfCol := s.pivot[:nc]
	for i := range pivotRowOfCol {
		pivotRowOfCol[i] = -1
	}
	rank := 0
	for col := 0; col < nc && rank < rows; col++ {
		sel := -1
		for r := rank; r < rows; r++ {
			if aug[r].Get(col) {
				sel = r
				break
			}
		}
		if sel < 0 {
			continue
		}
		aug[rank], aug[sel] = aug[sel], aug[rank]
		for r := 0; r < rows; r++ {
			if r != rank && aug[r].Get(col) {
				aug[r].XorInPlace(aug[rank])
			}
		}
		pivotRowOfCol[col] = rank
		rank++
	}
	// Inconsistent iff some row is all-zero in coefficients but 1 in the
	// augmented column.
	for r := rank; r < rows; r++ {
		if aug[r].Get(nc) {
			return Vec{}, false
		}
	}
	// Back-substitute: free variables at 0, pivot variables read off the
	// augmented bit (matrix is in reduced row echelon form).
	s.x = MakeInto(s.x, nc)
	for col := 0; col < nc; col++ {
		if pr := pivotRowOfCol[col]; pr >= 0 {
			s.x.Set(col, aug[pr].Get(nc))
		}
	}
	return s.x, true
}

// Rank returns the GF(2) rank of the given set of equal-length vectors.
func Rank(vs []Vec) int {
	if len(vs) == 0 {
		return 0
	}
	basis := make([]Vec, 0, len(vs))
	for _, v := range vs {
		cur := v.Clone()
		for _, b := range basis {
			// Reduce by the basis vector whose leading bit matches.
			lb := leadingBit(b)
			if lb >= 0 && cur.Get(lb) {
				cur.XorInPlace(b)
			}
		}
		if !cur.IsZero() {
			basis = append(basis, cur)
		}
	}
	return len(basis)
}

// leadingBit returns the index of the highest set bit, or -1 for zero.
func leadingBit(v Vec) int {
	for i := len(v.w) - 1; i >= 0; i-- {
		if v.w[i] != 0 {
			return i*wordBits + 63 - bits.LeadingZeros64(v.w[i])
		}
	}
	return -1
}
