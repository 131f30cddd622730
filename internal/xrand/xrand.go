// Package xrand provides the seeded randomness substrate used by every
// randomized scheme in this repository: a SplitMix64 generator, a keyed
// pseudo-random function over tuples of words, and a pairwise-independent
// hash family (Definition A.1 / Fact A.2 in the paper).
//
// All randomness in the repository flows from explicit 64-bit seeds through
// this package, which makes labeling, decoding, and routing deterministic
// for a fixed seed and therefore testable despite the schemes being
// randomized with high-probability guarantees.
//
// The paper derives edge identifiers from an epsilon-bias space [NN93] using
// an O(log^2 n)-bit seed. We substitute a keyed SplitMix64 PRF (see
// DESIGN.md, Substitutions): the decoder-facing property — that the XOR of
// two or more identifiers is not itself a valid identifier except with
// negligible probability — holds with probability >= 1 - poly(f log n)/2^64
// per query, which dominates the paper's 1/n^10 guarantee for every
// practical n.
package xrand

import "math/bits"

// golden is the SplitMix64 increment (2^64 / phi, rounded to odd).
const golden = 0x9e3779b97f4a7c15

// SplitMix64 is a tiny, fast, full-period 64-bit generator. It is used both
// directly (as a stream) and as the finalizer of the keyed PRF Hash.
//
// The zero value is a valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a generator seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value in the stream.
func (s *SplitMix64) Next() uint64 {
	s.state += golden
	return mix(s.state)
}

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0, matching the contract of math/rand.Intn.
func (s *SplitMix64) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with non-positive n")
	}
	// Lemire's multiply-shift rejection-free mapping is biased by at most
	// n/2^64, which is far below anything observable here.
	hi, _ := bits.Mul64(s.Next(), uint64(n))
	return int(hi)
}

// Int63 returns a uniformly distributed non-negative int64.
func (s *SplitMix64) Int63() int64 {
	return int64(s.Next() >> 1)
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (s *SplitMix64) Float64() float64 {
	return float64(s.Next()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *SplitMix64) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// mix is the SplitMix64 finalizer: a bijective scrambling of 64-bit words
// with full avalanche.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash is a keyed PRF over a tuple of words: it absorbs each word into the
// running state with a round of mixing. It is the basis for edge UIDs
// (Lemma 3.8) and for deriving independent sub-seeds from a master seed.
func Hash(seed uint64, words ...uint64) uint64 {
	h := mix(seed ^ golden)
	for _, w := range words {
		h = mix(h ^ mix(w+golden))
	}
	return h
}

// DeriveSeed deterministically derives an independent sub-seed from a master
// seed and a salt tuple. Distinct salts yield (computationally) independent
// streams.
func DeriveSeed(master uint64, salt ...uint64) uint64 {
	return Hash(master, salt...)
}

// mersenne61 is the Mersenne prime 2^61 - 1 used as the field for the
// pairwise-independent hash family.
const mersenne61 = (1 << 61) - 1

// Pairwise is a pairwise-independent hash function h(x) = (a*x + b) mod p
// over the field GF(2^61 - 1), per Definition A.1. Its outputs are uniform
// on [0, 2^61-1) and pairwise independent across inputs, which is the only
// property the sketch sampling of Section 3.2.1 needs (Lemma 3.9).
type Pairwise struct {
	a, b uint64
}

// NewPairwise draws a random function from the family using the given seed.
// The multiplier a is non-zero so the function is injective on the field.
func NewPairwise(seed uint64) Pairwise {
	rng := NewSplitMix64(seed)
	a := rng.Next() % mersenne61
	for a == 0 {
		a = rng.Next() % mersenne61
	}
	b := rng.Next() % mersenne61
	return Pairwise{a: a, b: b}
}

// Eval returns h(x) in [0, 2^61 - 1).
func (p Pairwise) Eval(x uint64) uint64 {
	// Reduce x into the field first; then one 128-bit multiply and a
	// Mersenne reduction.
	x %= mersenne61
	hi, lo := bits.Mul64(p.a, x)
	// a*x mod 2^61-1: fold the high bits down. a, x < 2^61 so hi < 2^58.
	r := mod61(hi, lo)
	r += p.b
	if r >= mersenne61 {
		r -= mersenne61
	}
	return r
}

// MaxLevel returns the largest level j >= 0 such that Eval(x) falls in the
// top sampling set of rate 2^-j, i.e. Eval(x) < floor(p / 2^j); sampling
// sets are nested (E_0 superset of E_1 superset of ...), matching the edge
// sets E_{i,j} of Section 3.2.1. The result is capped at maxLevels-1. Level
// 0 always samples.
func (p Pairwise) MaxLevel(x uint64, maxLevels int) int {
	return levelOf(p.Eval(x), maxLevels)
}

// levelOf is MaxLevel on a hash value v in O(1). floor(p / 2^j) is
// 2^(61-j) - 1, so v is below it exactly when v+1 has at most 61-j bits:
// the deepest such j is 61 - bits.Len64(v+1), then capped and floored.
func levelOf(v uint64, maxLevels int) int {
	return max(0, min(maxLevels-1, 61-bits.Len64(v+1)))
}

// mod61 reduces the 128-bit value hi*2^64 + lo modulo 2^61 - 1.
func mod61(hi, lo uint64) uint64 {
	// 2^64 = 8 mod (2^61 - 1), so hi*2^64 + lo = hi*8 + lo.
	// Split lo into low 61 bits and high 3 bits.
	r := (lo & mersenne61) + (lo >> 61) + hi*8
	r = (r & mersenne61) + (r >> 61)
	if r >= mersenne61 {
		r -= mersenne61
	}
	return r
}
