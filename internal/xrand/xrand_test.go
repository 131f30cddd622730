package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a := NewSplitMix64(42)
	b := NewSplitMix64(42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSplitMix64SeedsDiffer(t *testing.T) {
	a := NewSplitMix64(1)
	b := NewSplitMix64(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestIntnRange(t *testing.T) {
	rng := NewSplitMix64(7)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 200; i++ {
			v := rng.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewSplitMix64(1).Intn(0)
}

func TestIntnRoughlyUniform(t *testing.T) {
	rng := NewSplitMix64(11)
	const n, trials = 8, 80000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[rng.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Errorf("bucket %d: got %d, want about %.0f", i, c, want)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	rng := NewSplitMix64(3)
	for _, n := range []int{0, 1, 5, 100} {
		p := rng.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestFloat64Range(t *testing.T) {
	rng := NewSplitMix64(5)
	for i := 0; i < 1000; i++ {
		f := rng.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestHashDeterministicAndSensitive(t *testing.T) {
	if Hash(1, 2, 3) != Hash(1, 2, 3) {
		t.Fatal("Hash is not deterministic")
	}
	if Hash(1, 2, 3) == Hash(1, 3, 2) {
		t.Fatal("Hash ignores word order")
	}
	if Hash(1, 2, 3) == Hash(2, 2, 3) {
		t.Fatal("Hash ignores seed")
	}
	if Hash(1) == Hash(1, 0) {
		t.Fatal("Hash ignores trailing zero word")
	}
}

func TestDeriveSeedIndependence(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 1000; i++ {
		s := DeriveSeed(99, i)
		if seen[s] {
			t.Fatalf("DeriveSeed collision at salt %d", i)
		}
		seen[s] = true
	}
}

func TestPairwiseEvalInField(t *testing.T) {
	f := func(seed, x uint64) bool {
		h := NewPairwise(seed)
		return h.Eval(x) < mersenne61
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPairwiseDeterministic(t *testing.T) {
	h := NewPairwise(123)
	g := NewPairwise(123)
	for x := uint64(0); x < 100; x++ {
		if h.Eval(x) != g.Eval(x) {
			t.Fatalf("same-seed functions differ at %d", x)
		}
	}
}

// TestPairwiseLevelGeometric checks that MaxLevel follows the geometric
// distribution the sketch sampling relies on: P(level >= j) ~ 2^-j.
func TestPairwiseLevelGeometric(t *testing.T) {
	const trials = 200000
	counts := make([]int, 8)
	h := NewPairwise(77)
	for x := uint64(0); x < trials; x++ {
		lvl := h.MaxLevel(x, 8)
		for j := 0; j <= lvl; j++ {
			counts[j]++
		}
	}
	for j := 1; j < 6; j++ {
		want := float64(trials) / math.Pow(2, float64(j))
		got := float64(counts[j])
		if math.Abs(got-want) > want*0.15+50 {
			t.Errorf("level %d: got %v inclusions, want about %v", j, got, want)
		}
	}
	if counts[0] != trials {
		t.Errorf("level 0 must always sample: got %d of %d", counts[0], trials)
	}
}

// levelByLoop is the level scan MaxLevel used before levelOf: the oracle
// of TestLevelOfMatchesLoop.
func levelByLoop(v uint64, maxLevels int) int {
	j := 1
	for j < maxLevels && v < (mersenne61>>uint(j)) {
		j++
	}
	return j - 1
}

// TestLevelOfMatchesLoop checks the O(1) level against the level scan at
// every 2^k-2..2^k+2 (the boundaries of the sampling sets) and on random
// hash values, for every cap from 0 to 70.
func TestLevelOfMatchesLoop(t *testing.T) {
	var vs []uint64
	for k := 0; k < 64; k++ {
		for d := uint64(0); d <= 4; d++ {
			if p := uint64(1)<<k + d; p >= 2 { // 2^k+d-2 without wrapping
				vs = append(vs, p-2)
			}
		}
	}
	rng := NewSplitMix64(19)
	h := NewPairwise(23)
	for i := 0; i < 2000; i++ {
		vs = append(vs, rng.Next()%mersenne61, h.Eval(rng.Next()), rng.Next())
	}
	for _, v := range vs {
		for maxLevels := 0; maxLevels <= 70; maxLevels++ {
			if got, want := levelOf(v, maxLevels), levelByLoop(v, maxLevels); got != want {
				t.Fatalf("levelOf(%#x, %d) = %d, level scan %d", v, maxLevels, got, want)
			}
		}
	}
}

// TestPairwisePairwiseIndependence empirically checks the defining property
// on a coarse two-bucket projection: for fixed x != y the joint distribution
// of (bucket(h(x)), bucket(h(y))) over random h is close to uniform on the
// 4 combinations.
func TestPairwisePairwiseIndependence(t *testing.T) {
	const trials = 40000
	var joint [2][2]int
	for s := uint64(0); s < trials; s++ {
		h := NewPairwise(s)
		bx := h.Eval(17) >> 60 & 1
		by := h.Eval(42) >> 60 & 1
		joint[bx][by]++
	}
	want := float64(trials) / 4
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if math.Abs(float64(joint[i][j])-want) > want*0.1 {
				t.Errorf("joint[%d][%d] = %d, want about %.0f", i, j, joint[i][j], want)
			}
		}
	}
}

func TestMod61(t *testing.T) {
	cases := []struct {
		hi, lo, want uint64
	}{
		{0, 0, 0},
		{0, mersenne61, 0},
		{0, mersenne61 + 5, 5},
		{0, ^uint64(0), (^uint64(0)) % mersenne61},
		{1, 0, 8 % mersenne61},
	}
	for _, c := range cases {
		if got := mod61(c.hi, c.lo); got != c.want {
			t.Errorf("mod61(%d,%d) = %d, want %d", c.hi, c.lo, got, c.want)
		}
	}
}

func BenchmarkHash(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= Hash(uint64(i), 1, 2)
	}
	_ = sink
}

func BenchmarkPairwiseEval(b *testing.B) {
	h := NewPairwise(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= h.Eval(uint64(i))
	}
	_ = sink
}
