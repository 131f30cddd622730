package bitvec

import (
	"slices"
	"testing"
	"testing/quick"

	"ftrouting/internal/xrand"
)

func TestNewIsZero(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		v := New(n)
		if v.Len() != n {
			t.Fatalf("Len = %d, want %d", v.Len(), n)
		}
		if !v.IsZero() {
			t.Fatalf("New(%d) not zero", n)
		}
		if v.OnesCount() != 0 {
			t.Fatalf("New(%d) OnesCount != 0", n)
		}
	}
}

func TestSetGetFlip(t *testing.T) {
	v := New(130)
	idx := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idx {
		v.Set(i, true)
		if !v.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if v.OnesCount() != len(idx) {
		t.Fatalf("OnesCount = %d, want %d", v.OnesCount(), len(idx))
	}
	for _, i := range idx {
		v.Flip(i)
		if v.Get(i) {
			t.Fatalf("bit %d still set after flip", i)
		}
	}
	if !v.IsZero() {
		t.Fatal("vector not zero after flipping all set bits")
	}
}

func TestXorProperties(t *testing.T) {
	rng := xrand.NewSplitMix64(9)
	f := func(seed uint64) bool {
		r := xrand.NewSplitMix64(seed)
		n := 1 + r.Intn(200)
		a, b, c := Random(n, rng), Random(n, rng), Random(n, rng)
		// Associativity and commutativity.
		if !a.Xor(b).Xor(c).Equal(a.Xor(b.Xor(c))) {
			return false
		}
		if !a.Xor(b).Equal(b.Xor(a)) {
			return false
		}
		// Self-inverse.
		if !a.Xor(a).IsZero() {
			return false
		}
		// Identity.
		if !a.Xor(New(n)).Equal(a) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestXorAll(t *testing.T) {
	rng := xrand.NewSplitMix64(4)
	a, b, c := Random(77, rng), Random(77, rng), Random(77, rng)
	got := XorAll(a, b, c)
	want := a.Xor(b).Xor(c)
	if !got.Equal(want) {
		t.Fatal("XorAll mismatch")
	}
	if !XorAll(a).Equal(a) {
		t.Fatal("XorAll single mismatch")
	}
}

func TestXorLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	New(3).XorInPlace(New(4))
}

func TestRandomMasksTail(t *testing.T) {
	rng := xrand.NewSplitMix64(1)
	for i := 0; i < 50; i++ {
		v := Random(65, rng)
		if len(v.Words()) != 2 {
			t.Fatal("wrong word count")
		}
		if v.Words()[1]&^1 != 0 {
			t.Fatalf("tail bits leaked: %x", v.Words()[1])
		}
	}
}

func TestFromWords(t *testing.T) {
	v := FromWords(70, []uint64{^uint64(0), ^uint64(0)})
	if v.OnesCount() != 70 {
		t.Fatalf("OnesCount = %d, want 70", v.OnesCount())
	}
}

func TestString(t *testing.T) {
	v := New(5)
	v.Set(0, true)
	v.Set(3, true)
	if got := v.String(); got != "10010" {
		t.Fatalf("String = %q, want 10010", got)
	}
}

// solveBrute enumerates all 2^k subsets to decide solvability.
func solveBrute(cols []Vec, target Vec) bool {
	k := len(cols)
	for mask := 0; mask < 1<<uint(k); mask++ {
		acc := New(target.Len())
		for i := 0; i < k; i++ {
			if mask>>uint(i)&1 == 1 {
				acc.XorInPlace(cols[i])
			}
		}
		if acc.Equal(target) {
			return true
		}
	}
	return false
}

func TestSolveXORAgainstBruteForce(t *testing.T) {
	rng := xrand.NewSplitMix64(31)
	for trial := 0; trial < 300; trial++ {
		rows := 1 + rng.Intn(12)
		k := rng.Intn(9)
		cols := make([]Vec, k)
		for i := range cols {
			cols[i] = Random(rows, rng)
		}
		var target Vec
		if trial%2 == 0 {
			// Half the trials use a target that is a real combination, so
			// solvable cases are well represented.
			target = New(rows)
			for i := range cols {
				if rng.Intn(2) == 1 {
					target.XorInPlace(cols[i])
				}
			}
		} else {
			target = Random(rows, rng)
		}
		x, ok := SolveXOR(cols, target)
		if ok != solveBrute(cols, target) {
			t.Fatalf("trial %d: SolveXOR ok=%v disagrees with brute force", trial, ok)
		}
		if ok {
			// Verify the returned witness.
			acc := New(rows)
			for i := range cols {
				if x.Get(i) {
					acc.XorInPlace(cols[i])
				}
			}
			if !acc.Equal(target) {
				t.Fatalf("trial %d: returned x is not a solution", trial)
			}
		}
	}
}

func TestSolveXORNoColumns(t *testing.T) {
	zero := New(4)
	if _, ok := SolveXOR(nil, zero); !ok {
		t.Fatal("empty system with zero target must be solvable")
	}
	nz := New(4)
	nz.Set(2, true)
	if _, ok := SolveXOR(nil, nz); ok {
		t.Fatal("empty system with nonzero target must be unsolvable")
	}
}

func TestRank(t *testing.T) {
	a := New(8)
	a.Set(0, true)
	b := New(8)
	b.Set(1, true)
	ab := a.Xor(b)
	if got := Rank([]Vec{a, b, ab}); got != 2 {
		t.Fatalf("Rank = %d, want 2", got)
	}
	if got := Rank([]Vec{New(8), New(8)}); got != 0 {
		t.Fatalf("Rank of zeros = %d, want 0", got)
	}
	if got := Rank(nil); got != 0 {
		t.Fatalf("Rank(nil) = %d, want 0", got)
	}
}

func TestRankRandomFullRank(t *testing.T) {
	// 64 random 128-bit vectors are full rank with overwhelming probability.
	rng := xrand.NewSplitMix64(8)
	vs := make([]Vec, 64)
	for i := range vs {
		vs[i] = Random(128, rng)
	}
	if got := Rank(vs); got != 64 {
		t.Fatalf("Rank = %d, want 64", got)
	}
}

func BenchmarkSolveXOR(b *testing.B) {
	rng := xrand.NewSplitMix64(2)
	const rows, k = 80, 16
	cols := make([]Vec, k)
	for i := range cols {
		cols[i] = Random(rows, rng)
	}
	target := Random(rows, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SolveXOR(cols, target)
	}
}

func TestViewWritesThroughToItsWordsOnly(t *testing.T) {
	for _, n := range []int{1, 40, 64, 65, 130} {
		k := Words(n)
		slab := make([]uint64, 3*k)
		v := View(n, slab[k:2*k:2*k])
		v.Randomize(xrand.NewSplitMix64(uint64(n)))
		want := Random(n, xrand.NewSplitMix64(uint64(n)))
		if !slices.Equal(slab[k:2*k], want.Words()) {
			t.Fatalf("n=%d: slab holds %v after Randomize, Random drew %v", n, slab[k:2*k], want.Words())
		}
		for i, w := range slab {
			if (i < k || i >= 2*k) && w != 0 {
				t.Fatalf("n=%d: filling the middle view changed slab word %d", n, i)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("View accepted a word count that does not fit the length")
		}
	}()
	View(65, make([]uint64, 1))
}
