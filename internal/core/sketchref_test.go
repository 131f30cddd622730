package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ftrouting/internal/eid"
	"ftrouting/internal/graph"
	"ftrouting/internal/sketch"
	"ftrouting/internal/unionfind"
	"ftrouting/internal/xrand"
)

// refStats counts what reference decodes met, so the differential tests
// can show that they reached every shortcut of the fast decoder.
type refStats struct {
	zeroMerges int // unions whose XOR is the zero sketch
}

// trivial reports whether the context holds no tree fault: T is intact
// and every pair of the instance is connected through it.
func (ctx *SketchFaultContext) trivial() bool { return len(ctx.tree) == 0 }

// componentSketches returns the context's component sketches with every
// unit filled, building them first if no decode has.
func (ctx *SketchFaultContext) componentSketches() []sketch.Sketch {
	if err := ctx.build(); err != nil {
		panic(err)
	}
	ctx.fill(ctx.scheme.engines[ctx.copy].Params().Units - 1)
	return ctx.comps
}

// refDecode is Step 4 of the sketch decoder in its plain form, the
// reference the fast decoder must match bit for bit: every component
// starts from a full-width sketch (the zero sketch where the context
// stores nil), every union-find root is scanned with a validity test that
// first scans the whole cell for zero, and every union writes its
// full-width XOR at once.
func refDecode(ctx *SketchFaultContext, sv, tv SketchVertexLabel, st *refStats) (Verdict, error) {
	p := &SuccinctPath{}
	if sv.ID == tv.ID {
		return Verdict{Connected: true, Path: p}, nil
	}
	if ctx.trivial() {
		p.appendTreeStep(sv, tv)
		return Verdict{Connected: true, Path: p}, nil
	}
	eng := ctx.scheme.engines[ctx.copy]
	ct := ctx.ct
	nc := int32(ct.NumComps())
	prepared := ctx.componentSketches()
	comps := make([]sketch.Sketch, nc)
	for c := range comps {
		if prepared[c] == nil {
			comps[c] = eng.NewSketch()
		} else {
			comps[c] = prepared[c].Clone()
		}
	}
	uf := unionfind.New(int(nc))
	cs, ctc := ct.Locate(sv.Anc), ct.Locate(tv.Anc)
	var recs []recoveryEdge
	phases := 0
	for phase := 0; phase < eng.Params().Units && !uf.Same(cs, ctc); phase++ {
		phases++
		var cands []eid.Fields
		for c := int32(0); c < nc; c++ {
			if uf.Find(c) != c {
				continue
			}
			if f, ok := refFindOutgoing(eng, comps[c], phase); ok {
				cands = append(cands, f)
			}
		}
		for _, f := range cands {
			cu, cv := ct.Locate(f.AncU), ct.Locate(f.AncV)
			ru, rv := uf.Find(cu), uf.Find(cv)
			if ru == rv {
				continue
			}
			root, _ := uf.Union(ru, rv)
			merged := comps[ru].Clone()
			merged.Xor(comps[rv])
			if merged.IsZero() {
				st.zeroMerges++
			}
			comps[root] = merged
			recs = append(recs, recoveryEdge{fields: f, cu: cu, cv: cv})
		}
	}
	if !uf.Same(cs, ctc) {
		return Verdict{Connected: false, Phases: phases}, nil
	}
	if err := assemblePathInto(p, sv, tv, cs, ctc, int(nc), recs, new(decodeScratch)); err != nil {
		return Verdict{}, err
	}
	return Verdict{Connected: true, Path: p, Phases: phases}, nil
}

// refFindOutgoing scans the cells of one unit, deepest level first, and
// returns the first that holds a single valid identifier. Cells are
// stored row-major by (unit, level). An all-zero cell is skipped by a scan
// of all its words before the validity test runs.
func refFindOutgoing(eng *sketch.Engine, s sketch.Sketch, unit int) (eid.Fields, bool) {
	w, levels := eng.Layout().Words(), eng.Params().Levels
	for level := levels - 1; level >= 0; level-- {
		off := (unit*levels + level) * w
		cell := s[off : off+w]
		if sketch.Sketch(cell).IsZero() {
			continue
		}
		var f eid.Fields
		if eng.Layout().ValidateInto(cell, eng.SeedID(), &f) {
			return f, true
		}
	}
	return eid.Fields{}, false
}

// diffInstance is one sketch instance of a generator graph g: the scheme
// over sub, the subgraph induced by one connected component.
type diffInstance struct {
	name   string
	scheme *SketchScheme
	g      *graph.Graph
	sub    *graph.Subgraph
}

// diffInstances builds the generator matrix of the differential tests:
// one sketch instance per connected component with at least two vertices,
// sparse and dense, with and without routing payloads, and a tiny Units
// variant so that Borůvka runs out of phases.
func diffInstances(t testing.TB) []diffInstance {
	t.Helper()
	fat, _ := graph.FatTree(4)
	cases := []struct {
		name  string
		g     *graph.Graph
		units int  // 0: default sizing
		route bool // ports and a two-word payload per endpoint
	}{
		{"path", graph.Path(12), 0, false},
		{"cycle", graph.Cycle(14), 0, false},
		{"star", graph.Star(10), 0, false},
		{"wheel", graph.Wheel(11), 0, true},
		{"grid", graph.Grid(4, 5), 0, false},
		{"hypercube", graph.Hypercube(4), 0, false},
		{"random-tree", graph.RandomTree(20, 3), 0, false},
		{"random", graph.RandomConnected(40, 30, 4), 0, false},
		{"gnm", graph.GNM(30, 36, 5), 0, false},
		{"pref-attach", graph.PreferentialAttachment(30, 2, 6), 0, false},
		{"ring-cliques", graph.RingOfCliques(8, 4), 0, false},
		{"ring-cliques-route", graph.RingOfCliques(6, 4), 0, true},
		{"fattree", fat, 0, true},
		{"islands", graph.Islands(3, 14, 4, 7), 0, false},
		{"weighted", graph.WithRandomWeights(graph.RandomConnected(30, 40, 8), 9, 9), 0, false},
		{"random-tiny-units", graph.RandomConnected(40, 60, 9), 2, false},
		{"ring-cliques-tiny-units", graph.RingOfCliques(8, 4), 1, false},
	}
	var out []diffInstance
	for _, tc := range cases {
		comp, count := graph.Components(tc.g, nil)
		members := make([][]int32, count)
		for v, c := range comp {
			members[c] = append(members[c], int32(v))
		}
		for ci, vs := range members {
			if len(vs) < 2 {
				continue
			}
			sub, err := graph.Induced(tc.g, vs, graph.Inf)
			if err != nil {
				t.Fatal(err)
			}
			local := sub.Local
			opts := SketchOptions{Copies: 2, Seed: uint64(len(out) + 1)}
			if tc.units > 0 {
				opts.Params = sketch.DefaultParams(local.N(), local.M())
				opts.Params.Units = tc.units
			}
			if tc.route {
				opts.PortOf = func(e graph.EdgeID, at int32) int32 { return int32(e)%7 + at%3 }
				opts.ExtraOf = func(v int32) []uint64 { return []uint64{uint64(v)*3 + 1, ^uint64(v)} }
				opts.ExtraWords = 2
			}
			s, err := BuildSketch(local, graph.BFSTree(local, 0, nil), opts)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, diffInstance{name: fmt.Sprintf("%s/%d", tc.name, ci), scheme: s, g: tc.g, sub: sub})
		}
	}
	return out
}

// diffFaults draws k distinct local edges of s, each a tree edge with
// probability one half, so most fault sets split T.
func diffFaults(s *SketchScheme, k int, rng *xrand.SplitMix64) []graph.EdgeID {
	g, tree := s.Graph(), s.Tree()
	var ids []graph.EdgeID
	for tries := 0; len(ids) < k && tries < 8*k; tries++ {
		id := graph.EdgeID(rng.Intn(g.M()))
		if rng.Intn(2) == 0 && g.N() > 1 {
			id = tree.ParentEdge[1+rng.Intn(g.N()-1)]
		}
		dup := false
		for _, have := range ids {
			dup = dup || have == id
		}
		if !dup {
			ids = append(ids, id)
		}
	}
	return ids
}

// ringCuts returns fault sets of a ring of cliques (vertices of a clique
// are consecutive, size vertices each): two ring links plus one or two
// clique edges, the cuts whose arcs merge into zero group sketches.
func ringCuts(s *SketchScheme, size int32, rng *xrand.SplitMix64) [][]graph.EdgeID {
	g := s.Graph()
	var ring, inner []graph.EdgeID
	for id, e := range g.Edges() {
		if e.U/size != e.V/size {
			ring = append(ring, graph.EdgeID(id))
		} else {
			inner = append(inner, graph.EdgeID(id))
		}
	}
	var sets [][]graph.EdgeID
	for i := 0; i < 6 && len(ring) >= 2; i++ {
		a := rng.Intn(len(ring))
		b := (a + 1 + rng.Intn(len(ring)-1)) % len(ring)
		set := []graph.EdgeID{ring[a], ring[b], inner[rng.Intn(len(inner))]}
		if i%2 == 1 {
			if id := inner[rng.Intn(len(inner))]; id != set[2] {
				set = append(set, id)
			}
		}
		sets = append(sets, set)
	}
	return sets
}

// checkAgainstRef decodes the pair with DecodeInto (into the reused path
// p) and with Decode without a path, and fails unless both agree with the
// reference on Connected, Phases and every path step.
func checkAgainstRef(ctx *SketchFaultContext, sv, tv SketchVertexLabel, p *SuccinctPath, st *refStats) (Verdict, error) {
	want, err := refDecode(ctx, sv, tv, st)
	if err != nil {
		return Verdict{}, fmt.Errorf("reference: %w", err)
	}
	got, err := ctx.DecodeInto(sv, tv, p)
	if err != nil {
		return Verdict{}, fmt.Errorf("DecodeInto: %w", err)
	}
	if got.Connected != want.Connected || got.Phases != want.Phases {
		return Verdict{}, fmt.Errorf("pair (%d,%d): DecodeInto %v/%d phases, reference %v/%d",
			sv.ID, tv.ID, got.Connected, got.Phases, want.Connected, want.Phases)
	}
	if got.Connected && (len(got.Path.Steps) > 0 || len(want.Path.Steps) > 0) &&
		!reflect.DeepEqual(got.Path.Steps, want.Path.Steps) {
		return Verdict{}, fmt.Errorf("pair (%d,%d): paths differ:\n%+v\n%+v", sv.ID, tv.ID, got.Path.Steps, want.Path.Steps)
	}
	plain, err := ctx.Decode(sv, tv, false)
	if err != nil {
		return Verdict{}, fmt.Errorf("Decode: %w", err)
	}
	if plain.Connected != want.Connected || plain.Phases != want.Phases || plain.Path != nil {
		return Verdict{}, fmt.Errorf("pair (%d,%d): Decode %+v, reference %v/%d", sv.ID, tv.ID, plain, want.Connected, want.Phases)
	}
	return want, nil
}

// componentSketch recomputes, from vertex sketches alone, the sketch of
// the T\F component c of a prepared context: the XOR of its vertices'
// sketches with the faulty edges that leave c cancelled.
func componentSketch(ctx *SketchFaultContext, faults []SketchEdgeLabel, c int32) sketch.Sketch {
	s := ctx.scheme
	eng := s.engines[ctx.copy]
	out := eng.NewSketch()
	for v := int32(0); v < int32(s.g.N()); v++ {
		if ctx.ct.Locate(s.anc[v]) == c {
			eng.AddVertex(out, v)
		}
	}
	for _, l := range faults {
		f := l.Fields()
		if (ctx.ct.Locate(f.AncU) == c) != (ctx.ct.Locate(f.AncV) == c) {
			eng.CancelEdge(out, f.UID, l.EID)
		}
	}
	return out
}

// TestSketchDecodeMatchesReference compares the fast Step 4 with the
// plain reference over the generator matrix, both copies, random fault
// sets of one to four edges and ring cuts, and checks that each prepared
// component sketch is nil exactly when the sketch recomputed from vertex
// sketches is zero. It fails unless the matrix reached every shortcut:
// zero components at prepare, contexts with no slab, unions whose XOR is
// zero, and pairs that ran out of phases while connected in G\F.
func TestSketchDecodeMatchesReference(t *testing.T) {
	var st refStats
	var zeroPrepared, noSlab, exhausted, decodes int
	rng := xrand.NewSplitMix64(41)
	for _, in := range diffInstances(t) {
		s := in.scheme
		g := s.Graph()
		var sets [][]graph.EdgeID
		for k := 1; k <= 4; k++ {
			for rep := 0; rep < 3; rep++ {
				sets = append(sets, diffFaults(s, k, rng))
			}
		}
		if strings.HasPrefix(in.name, "ring-cliques") {
			sets = append(sets, ringCuts(s, 4, rng)...)
		}
		for _, ids := range sets {
			labels := make([]SketchEdgeLabel, len(ids))
			for i, id := range ids {
				labels[i] = s.EdgeLabel(id)
			}
			faultSet := graph.NewEdgeSet(ids...)
			for copy := 0; copy < s.Copies(); copy++ {
				ctx, err := s.PrepareFaults(labels, copy)
				if err != nil {
					t.Fatal(err)
				}
				if !ctx.trivial() {
					nils := 0
					prepared := ctx.componentSketches()
					for c := int32(0); c < int32(ctx.ct.NumComps()); c++ {
						want := componentSketch(ctx, labels, c)
						switch got := prepared[c]; {
						case got == nil && !want.IsZero():
							t.Fatalf("%s faults %v copy %d: component %d stored nil but its sketch is nonzero", in.name, ids, copy, c)
						case got != nil && !reflect.DeepEqual(got, want):
							t.Fatalf("%s faults %v copy %d: component %d sketch differs from its vertex sketches (zero: %v)", in.name, ids, copy, c, want.IsZero())
						case got == nil:
							nils++
						}
					}
					if nils > 0 {
						zeroPrepared++
					}
					if nils == ctx.ct.NumComps() {
						noSlab++
					}
				}
				var p SuccinctPath
				n := int32(g.N())
				step := n/9 + 1
				for sv := int32(0); sv < n; sv += step {
					for tv := n - 1; tv >= 0; tv -= step/2 + 1 {
						v, err := checkAgainstRef(ctx, s.VertexLabel(sv), s.VertexLabel(tv), &p, &st)
						if err != nil {
							t.Fatalf("%s faults %v copy %d: %v", in.name, ids, copy, err)
						}
						decodes++
						if !v.Connected && v.Phases == s.Params().Units &&
							graph.SameComponent(g, sv, tv, graph.SkipSet(faultSet)) {
							exhausted++
						}
					}
				}
			}
		}
	}
	t.Logf("%d decodes: %d contexts with zero components, %d with no slab, %d zero merges, %d exhausted connected pairs",
		decodes, zeroPrepared, noSlab, st.zeroMerges, exhausted)
	if zeroPrepared == 0 || noSlab == 0 || st.zeroMerges == 0 || exhausted == 0 {
		t.Fatal("the matrix missed a shortcut of the fast decoder (see counts above)")
	}
}

// sketchFuzzFixtures is a small matrix for FuzzSketchDecode: a ring of
// cliques, an island, a routing-payload wheel and a tiny-Units instance.
func sketchFuzzFixtures(t testing.TB) []*SketchScheme {
	t.Helper()
	build := func(g *graph.Graph, opts SketchOptions) *SketchScheme {
		s, err := BuildSketch(g, graph.BFSTree(g, 0, nil), opts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	island := graph.RandomConnected(16, 4, 3)
	tiny := graph.RandomConnected(24, 30, 5)
	tinyParams := sketch.DefaultParams(tiny.N(), tiny.M())
	tinyParams.Units = 2
	return []*SketchScheme{
		build(graph.RingOfCliques(6, 4), SketchOptions{Copies: 2, Seed: 1}),
		build(island, SketchOptions{Seed: 2}),
		build(graph.Wheel(9), SketchOptions{Seed: 3, ExtraWords: 1,
			PortOf:  func(e graph.EdgeID, at int32) int32 { return int32(e) % 5 },
			ExtraOf: func(v int32) []uint64 { return []uint64{uint64(v) + 7} }}),
		build(tiny, SketchOptions{Seed: 4, Params: tinyParams}),
	}
}

// FuzzSketchDecode checks the fast Step 4 against the plain reference on
// fuzzed fault sets and pairs: every byte pair of faults names an edge
// (at most six), and every decode of the fixture picked by which must
// match the reference on Connected, Phases and the path.
func FuzzSketchDecode(f *testing.F) {
	fixtures := sketchFuzzFixtures(f)
	f.Add(uint8(0), uint8(0), []byte{96, 0, 100, 0, 3, 0}, uint16(1), uint16(22))
	f.Add(uint8(1), uint8(0), []byte{2, 0, 5, 0}, uint16(0), uint16(15))
	f.Add(uint8(2), uint8(0), []byte{1, 0, 9, 0, 10, 0}, uint16(3), uint16(7))
	f.Add(uint8(3), uint8(0), []byte{1, 0, 2, 0, 7, 0, 11, 0}, uint16(0), uint16(23))
	f.Add(uint8(0), uint8(1), []byte{97, 0, 99, 0}, uint16(0), uint16(12))
	f.Fuzz(func(t *testing.T, which, copy uint8, faults []byte, sv, tv uint16) {
		s := fixtures[int(which)%len(fixtures)]
		g := s.Graph()
		var labels []SketchEdgeLabel
		for i := 0; i+1 < len(faults) && len(labels) < 6; i += 2 {
			id := graph.EdgeID((int(faults[i]) | int(faults[i+1])<<8) % g.M())
			labels = append(labels, s.EdgeLabel(id))
		}
		ctx, err := s.PrepareFaults(labels, int(copy)%s.Copies())
		if err != nil {
			t.Fatal(err)
		}
		n := g.N()
		var st refStats
		var p SuccinctPath
		a, b := int32(int(sv)%n), int32(int(tv)%n)
		for _, pair := range [][2]int32{{a, b}, {b, a}, {a, int32(n - 1)}, {0, b}} {
			if _, err := checkAgainstRef(ctx, s.VertexLabel(pair[0]), s.VertexLabel(pair[1]), &p, &st); err != nil {
				t.Fatal(err)
			}
		}
	})
}
