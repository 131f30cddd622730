package core

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ftrouting/internal/graph"
	"ftrouting/internal/xrand"
)

// TestSketchFaultContextMatchesDecode proves the prepared two-phase path
// (PrepareFaults + Decode) is bit-identical to the one-shot decoder,
// verdicts and succinct paths included.
func TestSketchFaultContextMatchesDecode(t *testing.T) {
	g := graph.RandomConnected(60, 100, 1)
	tree := graph.BFSTree(g, 0, nil)
	s, err := BuildSketch(g, tree, SketchOptions{Copies: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for nf := 0; nf <= 6; nf += 2 {
		ids := graph.RandomFaults(g, nf, uint64(nf+1))
		labels := make([]SketchEdgeLabel, len(ids))
		for i, id := range ids {
			labels[i] = s.EdgeLabel(id)
		}
		for copy := 0; copy < s.Copies(); copy++ {
			ctx, err := s.PrepareFaults(labels, copy)
			if err != nil {
				t.Fatal(err)
			}
			for sv := int32(0); sv < 12; sv++ {
				for _, tv := range []int32{sv, 30, 59} {
					for _, wantPath := range []bool{false, true} {
						want, err := s.Decode(s.VertexLabel(sv), s.VertexLabel(tv), labels, copy, wantPath)
						if err != nil {
							t.Fatal(err)
						}
						got, err := ctx.Decode(s.VertexLabel(sv), s.VertexLabel(tv), wantPath)
						if err != nil {
							t.Fatal(err)
						}
						if got.Connected != want.Connected || got.Phases != want.Phases {
							t.Fatalf("copy %d pair (%d,%d): prepared %+v, direct %+v", copy, sv, tv, got, want)
						}
						if (got.Path == nil) != (want.Path == nil) {
							t.Fatalf("pair (%d,%d): path presence differs", sv, tv)
						}
						if got.Path != nil && len(got.Path.Steps) != len(want.Path.Steps) {
							t.Fatalf("pair (%d,%d): path steps %d != %d", sv, tv, len(got.Path.Steps), len(want.Path.Steps))
						}
					}
				}
			}
		}
	}
}

// TestSketchFaultContextConcurrent hammers one prepared context from many
// goroutines; the context must be read-only after preparation.
func TestSketchFaultContextConcurrent(t *testing.T) {
	g := graph.RandomConnected(80, 140, 2)
	tree := graph.BFSTree(g, 0, nil)
	s, err := BuildSketch(g, tree, SketchOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ids := graph.RandomFaults(g, 5, 3)
	labels := make([]SketchEdgeLabel, len(ids))
	for i, id := range ids {
		labels[i] = s.EdgeLabel(id)
	}
	ctx, err := s.PrepareFaults(labels, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]bool, 40)
	for i := range want {
		v, err := s.Decode(s.VertexLabel(int32(i)), s.VertexLabel(int32(79-i)), labels, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v.Connected
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range want {
				v, err := ctx.Decode(s.VertexLabel(int32(i)), s.VertexLabel(int32(79-i)), false)
				if err != nil {
					t.Error(err)
					return
				}
				if v.Connected != want[i] {
					t.Errorf("pair %d: concurrent %v, sequential %v", i, v.Connected, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSketchFaultContextSlabReadOnly pins the copy-on-write merges: on
// pairs whose endpoints start in different T\F components (so decodes
// merge group sketches), sequential and concurrent DecodeInto calls leave
// the prepared component sketches word-for-word as prepared, and every
// verdict and succinct path equals the one-shot SketchScheme.Decode.
func TestSketchFaultContextSlabReadOnly(t *testing.T) {
	g := graph.RandomConnected(90, 160, 4)
	tree := graph.BFSTree(g, 0, nil)
	s, err := BuildSketch(g, tree, SketchOptions{Copies: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	// Five tree faults plus two non-tree ones: six components of T\F.
	var ids []graph.EdgeID
	for _, v := range []int32{7, 23, 41, 58, 80} {
		ids = append(ids, tree.ParentEdge[v])
	}
	for id := range g.Edges() {
		if len(ids) < 7 && !tree.InTree[id] {
			ids = append(ids, graph.EdgeID(id))
		}
	}
	labels := make([]SketchEdgeLabel, len(ids))
	for i, id := range ids {
		labels[i] = s.EdgeLabel(id)
	}
	type pair struct{ s, t int32 }
	for copy := 0; copy < s.Copies(); copy++ {
		ctx, err := s.PrepareFaults(labels, copy)
		if err != nil {
			t.Fatal(err)
		}
		if ctx.trivial || ctx.ct.NumComps() < 3 {
			t.Fatalf("copy %d: want at least 3 components of T\\F", copy)
		}
		var snapshot []uint64
		for _, c := range ctx.comps {
			snapshot = append(snapshot, c...)
		}
		checkSlab := func(when string) {
			t.Helper()
			var now []uint64
			for _, c := range ctx.comps {
				now = append(now, c...)
			}
			if !slices.Equal(now, snapshot) {
				t.Fatalf("copy %d: prepared component sketches changed %s", copy, when)
			}
		}
		var pairs []pair
		var want []Verdict
		merged := 0
		for sv := int32(0); sv < int32(g.N()); sv += 3 {
			for tv := int32(1); tv < int32(g.N()); tv += 7 {
				if ctx.ct.Locate(s.VertexLabel(sv).Anc) == ctx.ct.Locate(s.VertexLabel(tv).Anc) {
					continue
				}
				v, err := s.Decode(s.VertexLabel(sv), s.VertexLabel(tv), labels, copy, true)
				if err != nil {
					t.Fatal(err)
				}
				if v.Connected { // across components: at least one merge
					merged++
				}
				pairs = append(pairs, pair{sv, tv})
				want = append(want, v)
			}
		}
		if merged < 10 {
			t.Fatalf("copy %d: only %d pairs needed a merge", copy, merged)
		}
		same := func(p pair, got, want Verdict) error {
			if got.Connected != want.Connected || got.Phases != want.Phases {
				return fmt.Errorf("pair %v: prepared %v/%d phases, direct %v/%d", p, got.Connected, got.Phases, want.Connected, want.Phases)
			}
			if (got.Path == nil) != (want.Path == nil) {
				return fmt.Errorf("pair %v: path presence differs", p)
			}
			if got.Path != nil && !reflect.DeepEqual(got.Path.Steps, want.Path.Steps) {
				return fmt.Errorf("pair %v: paths differ:\n%+v\n%+v", p, got.Path.Steps, want.Path.Steps)
			}
			return nil
		}
		var path SuccinctPath
		for i, p := range pairs {
			v, err := ctx.DecodeInto(s.VertexLabel(p.s), s.VertexLabel(p.t), &path)
			if err != nil {
				t.Fatal(err)
			}
			if err := same(p, v, want[i]); err != nil {
				t.Fatal(err)
			}
		}
		checkSlab("by sequential decodes")

		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var path SuccinctPath
				for i := range pairs {
					j := (i + w*len(pairs)/4) % len(pairs)
					p := pairs[j]
					v, err := ctx.DecodeInto(s.VertexLabel(p.s), s.VertexLabel(p.t), &path)
					if err == nil {
						err = same(p, v, want[j])
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		checkSlab("by concurrent decodes")
	}
}

// TestPrepareFaultsCopyRange mirrors Decode's copy validation.
func TestPrepareFaultsCopyRange(t *testing.T) {
	g := graph.Cycle(8)
	tree := graph.BFSTree(g, 0, nil)
	s, err := BuildSketch(g, tree, SketchOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PrepareFaults(nil, -1); err == nil {
		t.Fatal("copy -1 accepted")
	}
	if _, err := s.PrepareFaults(nil, s.Copies()); err == nil {
		t.Fatal("copy past the end accepted")
	}
}

// TestCutFaultContextMatchesDecode proves the prepared cut path equals
// DecodeCut on every pair, including the naive reference decoder.
func TestCutFaultContextMatchesDecode(t *testing.T) {
	g := graph.RandomConnected(30, 45, 4)
	tree := graph.BFSTree(g, 0, nil)
	s, err := BuildCut(g, tree, CutOptions{MaxFaults: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for nf := 0; nf <= 4; nf++ {
		ids := graph.RandomFaults(g, nf, uint64(3*nf+2))
		labels := make([]CutEdgeLabel, len(ids))
		for i, id := range ids {
			labels[i] = s.EdgeLabel(id)
		}
		ctx := PrepareCutFaults(labels)
		for sv := int32(0); sv < 10; sv++ {
			for _, tv := range []int32{sv, 15, 29} {
				want := DecodeCut(s.VertexLabel(sv), s.VertexLabel(tv), labels)
				got := ctx.Decode(s.VertexLabel(sv), s.VertexLabel(tv))
				if got != want {
					t.Fatalf("|F|=%d pair (%d,%d): prepared %v, direct %v", nf, sv, tv, got, want)
				}
			}
		}
	}
}

// cutPoolCase is one prepared cut context with its scheme and raw fault
// labels, kept for the naive reference decoder.
type cutPoolCase struct {
	s      *CutScheme
	labels []CutEdgeLabel
	ctx    *CutFaultContext
}

// cutPoolContexts prepares cut contexts whose GF(2) systems differ in
// both dimensions: label widths b from 8 to 130 bits (one to three
// words), fault sets from empty to 7 edges, and one context mixing
// labels of two widths. The first case is the widest system.
func cutPoolContexts(t testing.TB) []cutPoolCase {
	t.Helper()
	var cases []cutPoolCase
	var wide, narrow []CutEdgeLabel
	for i, bits := range []int{130, 8, 65, 40, 64} {
		g := graph.RandomConnected(20+4*i, 2+i, uint64(70+i))
		tree := graph.BFSTree(g, 0, nil)
		s, err := BuildCut(g, tree, CutOptions{MaxFaults: 7, Bits: bits, Seed: uint64(80 + i)})
		if err != nil {
			t.Fatal(err)
		}
		if s.Bits() != bits {
			t.Fatalf("scheme width %d, want %d", s.Bits(), bits)
		}
		for _, nf := range []int{7 - i, i, 0} {
			ids := graph.RandomFaults(g, nf, uint64(90+10*i+nf))
			labels := make([]CutEdgeLabel, len(ids))
			for j, id := range ids {
				labels[j] = s.EdgeLabel(id)
			}
			cases = append(cases, cutPoolCase{s: s, labels: labels, ctx: PrepareCutFaults(labels)})
			switch bits {
			case 130:
				wide = append(wide, labels...)
			case 8:
				narrow = append(narrow, labels...)
			}
		}
	}
	// Mixed widths pad to the widest label; the ancestry parts of both
	// schemes' labels are decoded against the first scheme's vertices.
	mixed := append(append([]CutEdgeLabel(nil), narrow[:2]...), wide[:2]...)
	cases = append(cases, cutPoolCase{s: cases[0].s, labels: mixed, ctx: PrepareCutFaults(mixed)})
	return cases
}

// TestCutPoolInterleavedContexts decodes on one goroutine through
// interleaved cut contexts of different |F| and b, so every Decode
// reuses scratch the previous context sized for another system. Every
// answer must equal the naive subset-enumeration decoder.
func TestCutPoolInterleavedContexts(t *testing.T) {
	cases := cutPoolContexts(t)
	rng := xrand.NewSplitMix64(11)
	for pass := 0; pass < 36; pass++ {
		// A fresh visiting order per pass, so each context follows a
		// different neighbour.
		for _, k := range rng.Perm(len(cases)) {
			c := cases[k]
			n := c.s.g.N()
			sv, tv := int32(rng.Intn(n)), int32(rng.Intn(n))
			sl, tl := c.s.VertexLabel(sv), c.s.VertexLabel(tv)
			want := DecodeCutNaive(sl, tl, c.labels)
			if got := c.ctx.Decode(sl, tl); got != want {
				t.Fatalf("pass %d: |F|=%d b=%d pair (%d,%d): Decode %v, naive %v",
					pass, len(c.labels), c.s.Bits(), sv, tv, got, want)
			}
		}
	}
}
