// Benchmark harness: one benchmark per experiment of the index in
// DESIGN.md §2. Each BenchmarkE<i>* target regenerates the corresponding
// table or figure measurement:
//
//	go test -bench=. -benchmem            # run everything
//	go test -bench=BenchmarkE11 -v        # one experiment
//
// The per-operation benchmarks measure the representative operation of the
// experiment (a decode, a route, a build); the experiment tables themselves
// are regenerated by `go run ./cmd/experiments` and asserted non-degenerate
// by TestExperimentsSuite below.
package ftrouting

import (
	"bytes"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"

	"ftrouting/internal/baseline"
	"ftrouting/internal/core"
	"ftrouting/internal/distlabel"
	"ftrouting/internal/experiments"
	"ftrouting/internal/graph"
	"ftrouting/internal/route"
	"ftrouting/internal/sketch"
	"ftrouting/internal/treecover"
	"ftrouting/internal/xrand"
)

// --- E1 / Table 1: routing comparison ----------------------------------

func BenchmarkE1Table1Routing(b *testing.B) {
	g := graph.RandomConnected(96, 192, 1)
	r, err := route.Build(g, 2, 2, route.Options{Seed: 2, Balanced: true})
	if err != nil {
		b.Fatal(err)
	}
	faults := graph.NewEdgeSet(graph.RandomFaults(g, 2, 3)...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RouteFT(int32(i%96), int32((i*37+11)%96), faults); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2 / Thm 3.6: cut-based labels ------------------------------------

func BenchmarkE2CutLabelLength(b *testing.B) {
	// Measures construction; label bits are reported by cmd/experiments.
	g := graph.RandomConnected(1024, 2048, 1)
	tree := graph.BFSTree(g, 0, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildCut(g, tree, core.CutOptions{MaxFaults: 8, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2CutDecode(b *testing.B) {
	g := graph.RandomConnected(1024, 2048, 1)
	tree := graph.BFSTree(g, 0, nil)
	s, err := core.BuildCut(g, tree, core.CutOptions{MaxFaults: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	faults := graph.RandomFaults(g, 8, 2)
	labels := make([]core.CutEdgeLabel, len(faults))
	for i, id := range faults {
		labels[i] = s.EdgeLabel(id)
	}
	sl, tl := s.VertexLabel(0), s.VertexLabel(1023)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.DecodeCut(sl, tl, labels)
	}
}

// --- E3 / Thm 3.7: sketch-based labels ---------------------------------

func BenchmarkE3SketchDecode(b *testing.B) {
	g := graph.RandomConnected(512, 1024, 1)
	tree := graph.BFSTree(g, 0, nil)
	s, err := core.BuildSketch(g, tree, core.SketchOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	faults := graph.RandomFaults(g, 8, 2)
	labels := make([]core.SketchEdgeLabel, len(faults))
	for i, id := range faults {
		labels[i] = s.EdgeLabel(id)
	}
	sl, tl := s.VertexLabel(0), s.VertexLabel(511)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Decode(sl, tl, labels, 0, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3SketchDecodeWithPath(b *testing.B) {
	g := graph.RandomConnected(512, 1024, 1)
	tree := graph.BFSTree(g, 0, nil)
	s, err := core.BuildSketch(g, tree, core.SketchOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	faults := graph.RandomFaults(g, 8, 2)
	labels := make([]core.SketchEdgeLabel, len(faults))
	for i, id := range faults {
		labels[i] = s.EdgeLabel(id)
	}
	sl, tl := s.VertexLabel(0), s.VertexLabel(511)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Decode(sl, tl, labels, 0, true); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4: labeling construction time ------------------------------------

func BenchmarkE4LabelingSketch(b *testing.B) {
	g := graph.RandomConnected(4000, 12000, 1)
	tree := graph.BFSTree(g, 0, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildSketch(g, tree, core.SketchOptions{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5 / Fig 1, E6 / Fig 2 live in their packages' benchmarks ----------
// (cyclespace.BenchmarkAssign, comptree.BenchmarkBuildAndLocate); the
// aggregate tables come from cmd/experiments. Here: the decode-side op.

func BenchmarkE6ComponentTreeViaDecode(b *testing.B) {
	g := graph.RandomConnected(2000, 3000, 1)
	tree := graph.BFSTree(g, 0, nil)
	s, err := core.BuildSketch(g, tree, core.SketchOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	faults := graph.RandomFaults(g, 16, 2)
	labels := make([]core.SketchEdgeLabel, len(faults))
	for i, id := range faults {
		labels[i] = s.EdgeLabel(id)
	}
	sl, tl := s.VertexLabel(0), s.VertexLabel(1999)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Decode(sl, tl, labels, 0, false); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7 / Fig 3 / Lemma 3.17: succinct paths ---------------------------

func BenchmarkE7SuccinctPath(b *testing.B) {
	g := graph.RandomConnected(150, 300, 1)
	tree := graph.BFSTree(g, 0, nil)
	s, err := core.BuildSketch(g, tree, core.SketchOptions{Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	faults := graph.RandomFaults(g, 8, 3)
	labels := make([]core.SketchEdgeLabel, len(faults))
	for i, id := range faults {
		labels[i] = s.EdgeLabel(id)
	}
	sl, tl := s.VertexLabel(0), s.VertexLabel(149)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := s.Decode(sl, tl, labels, 0, true)
		if err != nil {
			b.Fatal(err)
		}
		if v.Connected && v.Path == nil {
			b.Fatal("missing path")
		}
	}
}

// --- E8 / Thm 1.4: distance labels -------------------------------------

func BenchmarkE8DistanceLabelsBuild(b *testing.B) {
	g := graph.WithRandomWeights(graph.RandomConnected(100, 160, 1), 4, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := distlabel.Build(g, 2, 2, distlabel.Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8DistanceLabelsDecode(b *testing.B) {
	g := graph.WithRandomWeights(graph.RandomConnected(100, 160, 1), 4, 2)
	s, err := distlabel.Build(g, 2, 2, distlabel.Options{Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	faults := graph.RandomFaults(g, 2, 4)
	fl := make([]distlabel.EdgeLabel, len(faults))
	for i, id := range faults {
		fl[i] = s.EdgeLabel(id)
	}
	sl, tl := s.VertexLabel(0), s.VertexLabel(99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Decode(sl, tl, fl); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E9 / Thm 5.3: forbidden-set routing -------------------------------

func BenchmarkE9ForbiddenSetRouting(b *testing.B) {
	g := graph.RandomConnected(110, 220, 1)
	r, err := route.Build(g, 4, 2, route.Options{Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	faults := graph.RandomFaults(g, 4, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RouteForbidden(int32(i%110), int32((i*13+7)%110), faults); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E10 / Thm 5.8: FT routing -----------------------------------------

func BenchmarkE10FTRouting(b *testing.B) {
	g := graph.RandomConnected(90, 180, 1)
	r, err := route.Build(g, 3, 2, route.Options{Seed: 7, Balanced: true})
	if err != nil {
		b.Fatal(err)
	}
	faults := graph.NewEdgeSet(graph.RandomFaults(g, 3, 8)...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RouteFT(int32(i%90), int32((i*31+5)%90), faults); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E11 / Thm 1.6 / Fig 4: lower bound --------------------------------

func BenchmarkE11LowerBound(b *testing.B) {
	g, s, t, last := graph.LowerBoundGraph(4, 24)
	faults := graph.NewEdgeSet(last[0], last[1], last[2], last[4])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := baseline.InteractiveRoute(g, s, t, faults)
		if !res.Reached {
			b.Fatal("baseline failed")
		}
	}
}

// --- E12: balanced-tables ablation --------------------------------------

func BenchmarkE12BalancedTablesAblation(b *testing.B) {
	g := graph.Wheel(64)
	r, err := route.Build(g, 2, 2, route.Options{Seed: 9, Balanced: true})
	if err != nil {
		b.Fatal(err)
	}
	spoke, _ := g.FindEdge(0, 17)
	faults := graph.NewEdgeSet(spoke)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RouteFT(int32(1+i%63), 17, faults); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E13: sketch-units ablation -----------------------------------------

func BenchmarkE13SketchUnitsAblation(b *testing.B) {
	for _, bench := range []struct {
		name  string
		units int
	}{{"units=4", 4}, {"units=16", 16}} {
		b.Run(bench.name, func(b *testing.B) {
			g := graph.RandomConnected(120, 200, 1)
			tree := graph.BFSTree(g, 0, nil)
			s, err := core.BuildSketch(g, tree, core.SketchOptions{
				Seed:   2,
				Params: sketchParams(bench.units, g),
			})
			if err != nil {
				b.Fatal(err)
			}
			faults := graph.RandomFaults(g, 6, 3)
			labels := make([]core.SketchEdgeLabel, len(faults))
			for i, id := range faults {
				labels[i] = s.EdgeLabel(id)
			}
			sl, tl := s.VertexLabel(0), s.VertexLabel(119)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Decode(sl, tl, labels, 0, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E14 / Def 4.1: tree covers -----------------------------------------

func BenchmarkE14TreeCover(b *testing.B) {
	g := graph.RandomConnected(200, 400, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := treecover.Build(g, 8, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel construction pipeline: BenchmarkBuildParallel* ------------
//
// Each benchmark builds the same scheme at Parallelism 1 (the sequential
// baseline, today's behavior) and Parallelism 0 (all cores). On a
// multi-core runner the parallel variants show the wall-clock speedup of
// the parallel build pipeline; the outputs are bit-identical either way
// (parallel_determinism_test.go).

var parallelVariants = []struct {
	name string
	p    int
}{{"sequential", 1}, {"allcores", 0}}

func BenchmarkBuildParallelDistLabelsRandomConnected(b *testing.B) {
	g := graph.RandomConnected(300, 600, 1)
	for _, bench := range parallelVariants {
		b.Run(bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := distlabel.Build(g, 2, 2, distlabel.Options{Seed: 1, Parallelism: bench.p}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBuildParallelRouterFatTree(b *testing.B) {
	g, _ := graph.FatTree(6)
	for _, bench := range parallelVariants {
		b.Run(bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := route.Build(g, 2, 2, route.Options{Seed: 1, Balanced: true, Parallelism: bench.p}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBuildParallelConnComponents(b *testing.B) {
	// Disjoint union of 8 RandomConnected components: the per-component
	// fan-out of BuildConnectivityLabels.
	const comps, per = 8, 80
	g := graph.New(comps * per)
	for c := 0; c < comps; c++ {
		part := graph.RandomConnected(per, 2*per, uint64(c+1))
		off := int32(c * per)
		for _, e := range part.Edges() {
			g.MustAddEdge(off+e.U, off+e.V, e.W)
		}
	}
	for _, bench := range parallelVariants {
		b.Run(bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := BuildConnectivityLabels(g, ConnOptions{Seed: 1, Parallelism: bench.p}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Codec: scheme files and label wire formats -------------------------
//
// BenchmarkMarshal*/BenchmarkUnmarshal* track serialization throughput
// and, via ReportMetric, the on-disk footprint (bytes per file, bits per
// vertex/edge) so encoded label sizes can be compared against the paper's
// bit bounds across PRs. The Unmarshal variants measure the serve-side
// cost: loading a preprocessed scheme instead of rebuilding it.

func BenchmarkMarshalConnLabels(b *testing.B) {
	g := graph.RandomConnected(512, 1024, 1)
	c, err := BuildConnectivityLabels(g, ConnOptions{Seed: 1, MaxFaults: 4})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := SaveConnLabels(&buf, c); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "bytes/file")
	b.ReportMetric(float64(8*buf.Len())/float64(g.N()), "filebits/vertex")
}

func BenchmarkUnmarshalConnLabels(b *testing.B) {
	g := graph.RandomConnected(512, 1024, 1)
	c, err := BuildConnectivityLabels(g, ConnOptions{Seed: 1, MaxFaults: 4})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveConnLabels(&buf, c); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadConnLabels(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "bytes/file")
}

func BenchmarkMarshalDistLabels(b *testing.B) {
	g := graph.RandomConnected(128, 256, 1)
	d, err := BuildDistanceLabels(g, 2, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := SaveDistLabels(&buf, d); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "bytes/file")
	b.ReportMetric(float64(8*buf.Len())/float64(g.N()), "filebits/vertex")
}

func BenchmarkUnmarshalDistLabels(b *testing.B) {
	g := graph.RandomConnected(128, 256, 1)
	d, err := BuildDistanceLabels(g, 2, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveDistLabels(&buf, d); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadDistLabels(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "bytes/file")
}

func BenchmarkMarshalRouter(b *testing.B) {
	g := graph.RandomConnected(96, 192, 1)
	r, err := NewRouter(g, 2, 2, RouterOptions{Seed: 1, Balanced: true})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := SaveRouter(&buf, r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "bytes/file")
	b.ReportMetric(float64(8*buf.Len())/float64(g.N()), "filebits/vertex")
}

func BenchmarkUnmarshalRouter(b *testing.B) {
	// Load-vs-build is the point of persistence: compare against
	// BenchmarkBuildParallelRouterFatTree for the rebuild cost this skips.
	g := graph.RandomConnected(96, 192, 1)
	r, err := NewRouter(g, 2, 2, RouterOptions{Seed: 1, Balanced: true})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveRouter(&buf, r); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadRouter(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "bytes/file")
}

func BenchmarkMarshalCutEdgeLabel(b *testing.B) {
	g := graph.RandomConnected(1024, 2048, 1)
	tree := graph.BFSTree(g, 0, nil)
	s, err := core.BuildCut(g, tree, core.CutOptions{MaxFaults: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var last []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last, err = s.EdgeLabel(graph.EdgeID(i % g.M())).MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(last)), "bytes/label")
}

func BenchmarkUnmarshalCutEdgeLabel(b *testing.B) {
	g := graph.RandomConnected(1024, 2048, 1)
	tree := graph.BFSTree(g, 0, nil)
	s, err := core.BuildCut(g, tree, core.CutOptions{MaxFaults: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	data, err := s.EdgeLabel(7).MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var l core.CutEdgeLabel
		if err := l.UnmarshalBinary(data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(data)), "bytes/label")
}

func BenchmarkMarshalSketchVertexLabel(b *testing.B) {
	g := graph.RandomConnected(1024, 2048, 1)
	tree := graph.BFSTree(g, 0, nil)
	s, err := core.BuildSketch(g, tree, core.SketchOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var last []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last, err = s.VertexLabel(int32(i % g.N())).MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(last)), "bytes/label")
}

func BenchmarkUnmarshalSketchVertexLabel(b *testing.B) {
	g := graph.RandomConnected(1024, 2048, 1)
	tree := graph.BFSTree(g, 0, nil)
	s, err := core.BuildSketch(g, tree, core.SketchOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	data, err := s.VertexLabel(9).MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var l core.SketchVertexLabel
		if err := l.UnmarshalBinary(data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(data)), "bytes/label")
}

func BenchmarkMarshalDistVertexLabel(b *testing.B) {
	g := graph.RandomConnected(128, 256, 1)
	s, err := distlabel.Build(g, 2, 2, distlabel.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var last []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last, err = s.VertexLabel(int32(i % g.N())).MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(last)), "bytes/label")
}

func BenchmarkUnmarshalDistVertexLabel(b *testing.B) {
	g := graph.RandomConnected(128, 256, 1)
	s, err := distlabel.Build(g, 2, 2, distlabel.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	data, err := s.VertexLabel(17).MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var l distlabel.VertexLabel
		if err := l.UnmarshalBinary(data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(data)), "bytes/label")
}

func BenchmarkMarshalRouteLabel(b *testing.B) {
	g := graph.RandomConnected(96, 192, 1)
	r, err := route.Build(g, 2, 2, route.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var last []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last, err = r.Label(int32(i % g.N())).MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(last)), "bytes/label")
}

func BenchmarkUnmarshalRouteLabel(b *testing.B) {
	g := graph.RandomConnected(96, 192, 1)
	r, err := route.Build(g, 2, 2, route.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	data, err := r.Label(31).MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var l route.Label
		if err := l.UnmarshalBinary(data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(data)), "bytes/label")
}

// --- Batch query engine: BenchmarkQueryBatch* ----------------------------
//
// Each benchmark answers the same >= 1024 pairs against one fault set
// three ways: "loop" is the one-at-a-time API (fault structures rebuilt
// per call, today's serving cost), "batch-seq" is the batch API at
// Parallelism 1 (pure fault-set amortization), "batch-all" adds the
// worker-pool fan-out. queries/s is the serving throughput; batch-all on
// a multi-core runner is the headline number. The bench-compare CI job
// gates on these (see cmd/benchcmp).

// batchBenchPairs builds a deterministic pair list.
func batchBenchPairs(n, count int) []Pair {
	pairs := make([]Pair, count)
	for i := range pairs {
		pairs[i] = Pair{S: int32((i * 5) % n), T: int32((i*11 + n/2) % n)}
	}
	return pairs
}

func BenchmarkQueryBatchConn(b *testing.B) {
	g := graph.RandomConnected(512, 1024, 1)
	c, err := BuildConnectivityLabels(g, ConnOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	faults := graph.RandomFaults(g, 6, 2)
	pairs := batchBenchPairs(g.N(), 2048)
	batch := QueryBatch{Pairs: pairs, Faults: faults}
	reportQPS := func(b *testing.B) {
		b.ReportMetric(float64(len(pairs))*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	}
	b.Run("loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range pairs {
				if _, err := c.Connected(p.S, p.T, faults); err != nil {
					b.Fatal(err)
				}
			}
		}
		reportQPS(b)
	})
	for _, v := range parallelVariants {
		b.Run("batch-"+v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.ConnectedBatch(batch, BatchOptions{Parallelism: v.p}); err != nil {
					b.Fatal(err)
				}
			}
			reportQPS(b)
		})
	}
	// ringOfCliques is the conn-warm scheme: sketch labels on
	// RingOfCliques(64,16), f=4. Its fault sets are two ring links plus
	// two random edges, drawn by the returned func. Two ring cuts split
	// the ring into two arcs, so a share of the pairs is disconnected and
	// runs every Borůvka phase. pairs draws a 16-pair batch.
	ringOfCliques := func(b *testing.B) (c *ConnLabels, draw func(*xrand.SplitMix64) []EdgeID, pairs func(*xrand.SplitMix64) []Pair) {
		g := graph.RingOfCliques(64, 16)
		c, err := BuildConnectivityLabels(g, ConnOptions{Scheme: SketchBased, MaxFaults: 4, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		var ring []EdgeID
		for id, e := range g.Edges() {
			if e.U/16 != e.V/16 {
				ring = append(ring, EdgeID(id))
			}
		}
		draw = func(rng *xrand.SplitMix64) []EdgeID {
			var faults []EdgeID
			for len(faults) < 4 {
				id := EdgeID(rng.Intn(g.M()))
				if len(faults) < 2 {
					id = ring[rng.Intn(len(ring))]
				}
				if !slices.Contains(faults, id) {
					faults = append(faults, id)
				}
			}
			return faults
		}
		pairs = func(rng *xrand.SplitMix64) []Pair {
			ps := make([]Pair, 16)
			for i := range ps {
				ps[i] = Pair{S: int32(rng.Intn(g.N())), T: int32(rng.Intn(g.N()))}
			}
			return ps
		}
		return c, draw, pairs
	}
	// ringofcliques-warm is the shape of a warm served connectivity
	// request: 16 prepared contexts of the ring-of-cliques scheme taken
	// round-robin, 16 pairs a batch, one worker.
	b.Run("ringofcliques-warm", func(b *testing.B) {
		c, draw, drawPairs := ringOfCliques(b)
		rng := xrand.NewSplitMix64(7)
		ctxs := make([]*ConnFaultContext, 16)
		for i := range ctxs {
			var err error
			if ctxs[i], err = c.PrepareFaults(draw(rng)); err != nil {
				b.Fatal(err)
			}
		}
		pairs := drawPairs(rng)
		opts := BatchOptions{Parallelism: 1}
		for _, x := range ctxs {
			if _, err := x.ConnectedBatch(pairs, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ctxs[i%len(ctxs)].ConnectedBatch(pairs, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(pairs))*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	})
	// ringofcliques-fresh is the same request on a context cache miss:
	// every op prepares a fresh fault set and answers one 16-pair batch,
	// so the sketch prepare (Steps 1-3) is gated with the decode. The two
	// ring cuts separate pairs in T\F, so every batch builds its
	// component sketches (Steps 2-3) on its first separated pair.
	b.Run("ringofcliques-fresh", func(b *testing.B) {
		c, draw, drawPairs := ringOfCliques(b)
		rng := xrand.NewSplitMix64(7)
		pairs := drawPairs(rng)
		opts := BatchOptions{Parallelism: 1}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx, err := c.PrepareFaults(draw(rng))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ctx.ConnectedBatch(pairs, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(pairs))*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	})
	// islands-cut-warm is the same warm request on the cut backend: cut
	// labels on Islands(8,200,400), f=4, 16 prepared contexts of four
	// faults in four distinct islands, 16 in-island pairs a batch, one
	// worker. About half the pairs fall in a faulty island and decode; the
	// rest take the fault-free shortcut.
	b.Run("islands-cut-warm", func(b *testing.B) {
		const islands, size = 8, 200
		g := graph.Islands(islands, size, 400, 1)
		c, err := BuildConnectivityLabels(g, ConnOptions{Scheme: CutBased, MaxFaults: 4, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		rng := xrand.NewSplitMix64(7)
		ctxs := make([]*ConnFaultContext, 16)
		for i := range ctxs {
			var faults []EdgeID
			used := make(map[int32]bool)
			for len(faults) < 4 {
				id := EdgeID(rng.Intn(g.M()))
				if island := g.Edge(id).U / size; !used[island] {
					used[island] = true
					faults = append(faults, id)
				}
			}
			if ctxs[i], err = c.PrepareFaults(faults); err != nil {
				b.Fatal(err)
			}
		}
		pairs := make([]Pair, 16)
		for i := range pairs {
			base := int32(rng.Intn(islands) * size)
			pairs[i] = Pair{S: base + int32(rng.Intn(size)), T: base + int32(rng.Intn(size))}
		}
		opts := BatchOptions{Parallelism: 1}
		for _, x := range ctxs {
			if _, err := x.ConnectedBatch(pairs, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ctxs[i%len(ctxs)].ConnectedBatch(pairs, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(pairs))*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	})
}

func BenchmarkQueryBatchDist(b *testing.B) {
	g := graph.WithRandomWeights(graph.RandomConnected(128, 220, 1), 4, 2)
	d, err := BuildDistanceLabels(g, 2, 2, 3)
	if err != nil {
		b.Fatal(err)
	}
	faults := graph.RandomFaults(g, 2, 4)
	pairs := batchBenchPairs(g.N(), 1024)
	batch := QueryBatch{Pairs: pairs, Faults: faults}
	reportQPS := func(b *testing.B) {
		b.ReportMetric(float64(len(pairs))*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	}
	b.Run("loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range pairs {
				if _, err := d.Estimate(p.S, p.T, faults); err != nil {
					b.Fatal(err)
				}
			}
		}
		reportQPS(b)
	})
	for _, v := range parallelVariants {
		b.Run("batch-"+v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := d.EstimateBatch(batch, BatchOptions{Parallelism: v.p}); err != nil {
					b.Fatal(err)
				}
			}
			reportQPS(b)
		})
	}
}

// BenchmarkQueryBatchDistFreshFaults is the fault-churn serving shape:
// every op is a fresh 2-fault set and a 16-pair batch, so fault-context
// preparation dominates. The scale walk of 16 pairs reaches only a few of
// the instances F touches, and only those are prepared; the 1024-pair
// BenchmarkQueryBatchDist reaches most of them. The fault sets are drawn
// before the timer starts (a draw permutes all 4000 edges) and taken in
// turn from a ring; no context outlives its batch, so each op still
// prepares from scratch.
func BenchmarkQueryBatchDistFreshFaults(b *testing.B) {
	g := graph.RandomConnected(2000, 4000, 1)
	d, err := BuildDistanceLabels(g, 2, 2, 3)
	if err != nil {
		b.Fatal(err)
	}
	pairs := batchBenchPairs(g.N(), 16)
	opts := BatchOptions{Parallelism: 1}
	// Untimed: one warm-up batch.
	if _, err := d.EstimateBatch(QueryBatch{Pairs: pairs, Faults: graph.RandomFaults(g, 2, 1)}, opts); err != nil {
		b.Fatal(err)
	}
	faultRing := make([][]EdgeID, 256)
	for i := range faultRing {
		faultRing[i] = graph.RandomFaults(g, 2, uint64(i+2))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := QueryBatch{Pairs: pairs, Faults: faultRing[i%len(faultRing)]}
		if _, err := d.EstimateBatch(batch, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(pairs))*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// distFreshFixture is the scheme and fault sets of the fault-churn
// benchmarks: distance labels on RandomConnected(2000,4000), f=2, k=2,
// and a ring of 256 fresh 2-fault sets, drawn as
// BenchmarkQueryBatchDistFreshFaults draws them.
func distFreshFixture(tb testing.TB) (*DistLabels, *Graph, [][]EdgeID) {
	tb.Helper()
	g := graph.RandomConnected(2000, 4000, 1)
	d, err := BuildDistanceLabels(g, 2, 2, 3)
	if err != nil {
		tb.Fatal(err)
	}
	faultRing := make([][]EdgeID, 256)
	for i := range faultRing {
		faultRing[i] = graph.RandomFaults(g, 2, uint64(i+2))
	}
	return d, g, faultRing
}

// zipfPairs draws count pairs by perfbench's law: each endpoint follows a
// Zipf law with exponent 0.8 over a seeded permutation of the n vertices,
// so a few hot vertices take most pairs, as served traffic does.
func zipfPairs(n, count int, seed uint64) []Pair {
	r := rand.New(rand.NewPCG(seed, 0x7a697066))
	perm := r.Perm(n)
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -0.8)
		cdf[k] = sum
	}
	vertex := func() int32 {
		k := min(sort.SearchFloat64s(cdf, r.Float64()*sum), n-1)
		return int32(perm[k])
	}
	pairs := make([]Pair, count)
	for i := range pairs {
		pairs[i] = Pair{S: vertex(), T: vertex()}
	}
	return pairs
}

// BenchmarkQueryBatchDistFreshFaultsZipf is BenchmarkQueryBatchDistFreshFaults
// with the pairs of served traffic: each op is a fresh 2-fault set and 16
// pairs drawn by perfbench's Zipf law, taken in turn from rings drawn
// before the timer. A CPU profile with the arithmetic pairs of
// batchBenchPairs ranked the component sketch build first, where one of a
// daemon under perfbench's dist-fault-churn ranked it fourth.
func BenchmarkQueryBatchDistFreshFaultsZipf(b *testing.B) {
	d, g, faultRing := distFreshFixture(b)
	pairRing := make([][]Pair, 64)
	for i := range pairRing {
		pairRing[i] = zipfPairs(g.N(), 16, uint64(i+1))
	}
	opts := BatchOptions{Parallelism: 1}
	// Untimed: one warm-up batch.
	if _, err := d.EstimateBatch(QueryBatch{Pairs: pairRing[0], Faults: graph.RandomFaults(g, 2, 1)}, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := QueryBatch{Pairs: pairRing[i%len(pairRing)], Faults: faultRing[i%len(faultRing)]}
		if _, err := d.EstimateBatch(batch, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(16*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// distFreshAllocCeiling bounds the allocations of a 16-pair EstimateBatch
// on a fresh fault set, in the shape of BenchmarkQueryBatchDistFreshFaults:
// 27 measured, plus headroom. A reached instance allocates its boxed key
// and sync.Map nodes and, when it holds a tree fault, one context; a
// per-instance entry and closure around the context (34 in all), or edge
// labels, a component tree and an input copy per reached instance (75
// when they were built at first reach) break the ceiling.
const distFreshAllocCeiling = 31

func TestDistFreshFaultsAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2000-vertex distance labeling; skipped in -short")
	}
	if raceEnabled {
		t.Skip("allocation gate: race instrumentation allocates")
	}
	d, g, faultRing := distFreshFixture(t)
	pairs := batchBenchPairs(g.N(), 16)
	opts := BatchOptions{Parallelism: 1}
	i := 0
	batch := func() {
		if _, err := d.EstimateBatch(QueryBatch{Pairs: pairs, Faults: faultRing[i%len(faultRing)]}, opts); err != nil {
			t.Fatal(err)
		}
		i++
	}
	// A filling pass over the ring: the scheme encodes an edge's
	// identifier on first use and keeps it, as a serving daemon has.
	for range faultRing {
		batch()
	}
	allocs := testing.AllocsPerRun(len(faultRing), batch)
	if allocs > distFreshAllocCeiling {
		t.Fatalf("a fresh 16-pair EstimateBatch allocates %.0f/op, ceiling %d", allocs, distFreshAllocCeiling)
	}
	t.Logf("fresh 16-pair EstimateBatch: %.0f allocs/op", allocs)
}

func BenchmarkQueryBatchRouteForbidden(b *testing.B) {
	g := graph.RandomConnected(110, 220, 1)
	r, err := NewRouter(g, 3, 2, RouterOptions{Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	faults := graph.RandomFaults(g, 3, 6)
	pairs := batchBenchPairs(g.N(), 1024)
	batch := QueryBatch{Pairs: pairs, Faults: faults}
	reportQPS := func(b *testing.B) {
		b.ReportMetric(float64(len(pairs))*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	}
	b.Run("loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range pairs {
				if _, err := r.RouteForbidden(p.S, p.T, faults); err != nil {
					b.Fatal(err)
				}
			}
		}
		reportQPS(b)
	})
	for _, v := range parallelVariants {
		b.Run("batch-"+v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := r.RouteForbiddenBatch(batch, BatchOptions{Parallelism: v.p}); err != nil {
					b.Fatal(err)
				}
			}
			reportQPS(b)
		})
	}
	// fattree-warm is the shape of a warm served route-forbidden request:
	// FatTree(8), f=2, k=2, balanced tables, 16 prepared 2-fault contexts
	// taken round-robin, 16 pairs a batch, one worker. Every instance the
	// pairs reach is prepared before timing, so a batch costs its routes
	// and their Opt searches.
	b.Run("fattree-warm", func(b *testing.B) {
		g, _ := graph.FatTree(8)
		r, err := NewRouter(g, 2, 2, RouterOptions{Seed: 1, Balanced: true})
		if err != nil {
			b.Fatal(err)
		}
		ctxs := make([]*RouteFaultContext, 16)
		for i := range ctxs {
			if ctxs[i], err = r.PrepareFaults(graph.RandomFaults(g, 2, uint64(100+i))); err != nil {
				b.Fatal(err)
			}
		}
		pairs := batchBenchPairs(g.N(), 16)
		opts := BatchOptions{Parallelism: 1}
		for _, x := range ctxs {
			if _, err := x.RouteForbiddenBatch(pairs, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ctxs[i%len(ctxs)].RouteForbiddenBatch(pairs, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(pairs))*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	})
}

func BenchmarkQueryBatchRouteFT(b *testing.B) {
	g := graph.RandomConnected(90, 180, 1)
	r, err := NewRouter(g, 2, 2, RouterOptions{Seed: 7, Balanced: true})
	if err != nil {
		b.Fatal(err)
	}
	faults := graph.RandomFaults(g, 2, 8)
	pairs := batchBenchPairs(g.N(), 1024)
	batch := QueryBatch{Pairs: pairs, Faults: faults}
	faultSet := NewEdgeSet(faults...)
	reportQPS := func(b *testing.B) {
		b.ReportMetric(float64(len(pairs))*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	}
	b.Run("loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range pairs {
				if _, err := r.Route(p.S, p.T, faultSet); err != nil {
					b.Fatal(err)
				}
			}
		}
		reportQPS(b)
	})
	for _, v := range parallelVariants {
		b.Run("batch-"+v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := r.RouteBatch(batch, BatchOptions{Parallelism: v.p}); err != nil {
					b.Fatal(err)
				}
			}
			reportQPS(b)
		})
	}
}

// --- Shard load: BenchmarkLoadShard* -------------------------------------
//
// BenchmarkLoadShardCut is a cold shard load of the shard-churn serving
// workload: one shard per island of Islands(16,1000,2000), cut labels at
// f=4, loaded round-robin from a shard directory. Each op fetches, checks
// and decodes one shard and rebuilds its cycle-space labels; allocs/op is
// the count TestLoadShardAllocs bounds. BenchmarkLoadShardSketch and
// BenchmarkLoadShardDist load the other shard kinds whose decoders
// rebuild subgraphs (graph.SubgraphFromParts): sketch connectivity
// shards and distance shards, whose tree-cover clusters are subgraphs
// too.

func loadShardCutFixture(tb testing.TB) *Manifest {
	tb.Helper()
	g := Islands(16, 1000, 2000, 1)
	c, err := BuildConnectivityLabels(g, ConnOptions{Scheme: CutBased, MaxFaults: 4, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	m, err := SaveShardedConn(tb.TempDir(), c, ShardOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func BenchmarkLoadShardCut(b *testing.B) {
	m := loadShardCutFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.LoadShard(i % m.NumShards()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLoadShards loads the shards of m round-robin, one per op.
func benchLoadShards(b *testing.B, m *Manifest) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.LoadShard(i % m.NumShards()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadShardSketch(b *testing.B) {
	g := Islands(16, 1000, 2000, 1)
	c, err := BuildConnectivityLabels(g, ConnOptions{Scheme: SketchBased, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	m, err := SaveShardedConn(b.TempDir(), c, ShardOptions{})
	if err != nil {
		b.Fatal(err)
	}
	benchLoadShards(b, m)
}

func BenchmarkLoadShardDist(b *testing.B) {
	g := Islands(4, 200, 400, 1)
	d, err := BuildDistanceLabels(g, 2, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	m, err := SaveShardedDist(b.TempDir(), d, ShardOptions{})
	if err != nil {
		b.Fatal(err)
	}
	benchLoadShards(b, m)
}

// loadShardAllocCeiling bounds the allocations of one cold cut-shard load
// of loadShardCutFixture: 45 measured, plus a small margin. A load builds
// its subgraph, tree and labels from a few slabs, so the count does not
// grow with the shard's size; an allocation per edge or per vertex
// creeping back in (a shard has 1000 vertices and 3000 edges) breaks the
// ceiling many times over.
const loadShardAllocCeiling = 50

func TestLoadShardAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 16000-vertex labeling; skipped in -short")
	}
	m := loadShardCutFixture(t)
	i := 0
	allocs := testing.AllocsPerRun(32, func() {
		if _, err := m.LoadShard(i % m.NumShards()); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > loadShardAllocCeiling {
		t.Fatalf("cold LoadShard allocates %.0f/op, ceiling %d", allocs, loadShardAllocCeiling)
	}
	t.Logf("cold LoadShard: %.0f allocs/op", allocs)
}

// TestExperimentsSuite regenerates every experiment table with a fixed seed
// and asserts the invariant columns (zero violations, zero misclassified,
// zero invalid paths). This is the executable form of DESIGN.md §2.
func TestExperimentsSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is seconds-long; skipped in -short")
	}
	tables := experiments.All(42)
	if len(tables) != 14 {
		t.Fatalf("expected 14 experiments, got %d", len(tables))
	}
	mustZeroLast := map[string]bool{"E5": true, "E7": true, "E8": true, "E9": true, "E10": true}
	for _, tab := range tables {
		if len(tab.Rows) == 0 {
			t.Errorf("%s: empty table", tab.ID)
			continue
		}
		if !mustZeroLast[tab.ID] {
			continue
		}
		for _, row := range tab.Rows {
			last := row[len(row)-1]
			if last != "0" {
				t.Errorf("%s: violation column %q in row %v", tab.ID, last, row)
			}
		}
	}
	// Spot-check rendering.
	if !strings.Contains(tables[0].String(), "Table 1") {
		t.Error("E1 rendering broken")
	}
}

// sketchParams builds explicit params with a given unit count and the
// default level count for the graph.
func sketchParams(units int, g *graph.Graph) sketch.Params {
	return sketch.Params{Units: units, Levels: sketch.DefaultParams(g.N(), g.M()).Levels}
}
