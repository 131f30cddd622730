package ftrouting

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// batchParallelisms are the fan-out levels every equivalence test runs at:
// sequential and all cores (GOMAXPROCS).
var batchParallelisms = []int{1, 0}

// batchPairs builds a deterministic pair list covering the diagonal
// (s == t), repeated pairs, and a spread of distinct pairs.
func batchPairs(n int) []Pair {
	var out []Pair
	for i := 0; i < 24; i++ {
		s := int32((i * 7) % n)
		t := int32((i*13 + n/2) % n)
		out = append(out, Pair{S: s, T: t})
	}
	out = append(out, Pair{S: 0, T: 0})               // diagonal
	out = append(out, out[0], out[1])                 // duplicates
	out = append(out, Pair{S: out[2].T, T: out[2].S}) // reversed duplicate
	return out
}

// TestConnectedBatchMatchesSequential proves batch connectivity results are
// bit-identical to a sequential loop of single queries across the full
// generator matrix, both schemes, at parallelism 1 and GOMAXPROCS.
func TestConnectedBatchMatchesSequential(t *testing.T) {
	for name, g := range connTopologies() {
		for _, scheme := range []ConnSchemeKind{CutBased, SketchBased} {
			t.Run(fmt.Sprintf("%s/scheme%d", name, scheme), func(t *testing.T) {
				labels, err := BuildConnectivityLabels(g, ConnOptions{Scheme: scheme, MaxFaults: 4, Seed: 42})
				if err != nil {
					t.Fatal(err)
				}
				spread := 0 // the most components one batch's faults fall in
				for nf := 0; nf <= 4 && nf*3 < g.M(); nf++ {
					batch := QueryBatch{Pairs: batchPairs(g.N()), Faults: RandomFaults(g, nf, uint64(11*nf+3))}
					comps := make(map[int32]bool)
					for _, id := range batch.Faults {
						comps[labels.comp[g.Edge(id).U]] = true
					}
					spread = max(spread, len(comps))
					want := make([]bool, len(batch.Pairs))
					for i, p := range batch.Pairs {
						want[i], err = labels.Connected(p.S, p.T, batch.Faults)
						if err != nil {
							t.Fatal(err)
						}
					}
					for _, par := range batchParallelisms {
						got, err := labels.ConnectedBatch(batch, BatchOptions{Parallelism: par})
						if err != nil {
							t.Fatalf("parallelism %d: %v", par, err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("parallelism %d, |F|=%d: batch %v != sequential %v", par, nf, got, want)
						}
					}
				}
				// islands exists to spread a fault set over several
				// components with fault-free ones between them.
				if name == "islands" && spread < 3 {
					t.Fatalf("islands batches put faults in at most %d components, want one in >= 3", spread)
				}
			})
		}
	}
}

// TestConnFaultContextZeroAlloc pins that a warm ConnFaultContext
// answers pairs without allocating on either scheme: the per-component
// dispatch boxes nothing per pair.
func TestConnFaultContextZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate: race instrumentation allocates")
	}
	g := RingOfCliques(16, 8)
	faults := RandomFaults(g, 4, 9)
	pairs := batchPairs(g.N())
	for _, scheme := range []ConnSchemeKind{CutBased, SketchBased} {
		t.Run(fmt.Sprintf("scheme%d", scheme), func(t *testing.T) {
			labels, err := BuildConnectivityLabels(g, ConnOptions{Scheme: scheme, MaxFaults: 4, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			x, err := labels.PrepareFaults(faults)
			if err != nil {
				t.Fatal(err)
			}
			answer := func() {
				for _, p := range pairs {
					if _, err := x.Connected(p.S, p.T); err != nil {
						t.Fatal(err)
					}
				}
			}
			answer() // warm-up: the decoders' scratch pools fill once
			if allocs := testing.AllocsPerRun(50, answer); allocs != 0 {
				t.Fatalf("warm ConnFaultContext.Connected allocates %.2f per %d pairs, want 0", allocs, len(pairs))
			}
		})
	}
}

// TestEstimateBatchMatchesSequential proves batch distance estimates are
// bit-identical to a sequential loop of Estimate calls across the matrix.
func TestEstimateBatchMatchesSequential(t *testing.T) {
	for name, g := range distTopologies() {
		t.Run(name, func(t *testing.T) {
			labels, err := BuildDistanceLabels(g, 2, 2, 42)
			if err != nil {
				t.Fatal(err)
			}
			for nf := 0; nf <= 2 && nf*3 < g.M(); nf++ {
				batch := QueryBatch{Pairs: batchPairs(g.N()), Faults: RandomFaults(g, nf, uint64(7*nf+5))}
				want := make([]int64, len(batch.Pairs))
				for i, p := range batch.Pairs {
					want[i], err = labels.Estimate(p.S, p.T, batch.Faults)
					if err != nil {
						t.Fatal(err)
					}
				}
				for _, par := range batchParallelisms {
					got, err := labels.EstimateBatch(batch, BatchOptions{Parallelism: par})
					if err != nil {
						t.Fatalf("parallelism %d: %v", par, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("parallelism %d, |F|=%d: batch %v != sequential %v", par, nf, got, want)
					}
				}
			}
		})
	}
}

// TestRouteBatchMatchesSequential proves batch routing (both the
// unknown-fault and the forbidden-set model) is bit-identical to a
// sequential loop of single routes, including traces and cost accounting.
func TestRouteBatchMatchesSequential(t *testing.T) {
	for name, g := range distTopologies() {
		t.Run(name, func(t *testing.T) {
			router, err := NewRouter(g, 2, 2, RouterOptions{Seed: 42, Balanced: true})
			if err != nil {
				t.Fatal(err)
			}
			for nf := 0; nf <= 2 && nf*3 < g.M(); nf++ {
				batch := QueryBatch{Pairs: batchPairs(g.N()), Faults: RandomFaults(g, nf, uint64(5*nf+9))}
				wantFT := make([]RouteResult, len(batch.Pairs))
				wantFb := make([]RouteResult, len(batch.Pairs))
				for i, p := range batch.Pairs {
					wantFT[i], err = router.Route(p.S, p.T, NewEdgeSet(batch.Faults...))
					if err != nil {
						t.Fatal(err)
					}
					wantFb[i], err = router.RouteForbidden(p.S, p.T, batch.Faults)
					if err != nil {
						t.Fatal(err)
					}
				}
				for _, par := range batchParallelisms {
					gotFT, err := router.RouteBatch(batch, BatchOptions{Parallelism: par})
					if err != nil {
						t.Fatalf("parallelism %d: %v", par, err)
					}
					if !reflect.DeepEqual(gotFT, wantFT) {
						t.Fatalf("parallelism %d, |F|=%d: FT batch differs from sequential", par, nf)
					}
					gotFb, err := router.RouteForbiddenBatch(batch, BatchOptions{Parallelism: par})
					if err != nil {
						t.Fatalf("parallelism %d: %v", par, err)
					}
					if !reflect.DeepEqual(gotFb, wantFb) {
						t.Fatalf("parallelism %d, |F|=%d: forbidden batch differs from sequential", par, nf)
					}
				}
			}
		})
	}
}

// TestFaultContextReuse exercises the serving pattern the batch subsystem
// exists for: one prepared fault context answering several batches.
func TestFaultContextReuse(t *testing.T) {
	g := RandomConnected(40, 70, 3)
	labels, err := BuildConnectivityLabels(g, ConnOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	faults := RandomFaults(g, 3, 4)
	ctx, err := labels.PrepareFaults(faults)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for _, p := range batchPairs(g.N()) {
			want, err := labels.Connected(p.S, p.T, faults)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ctx.Connected(p.S, p.T)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("round %d pair (%d,%d): context %v, direct %v", round, p.S, p.T, got, want)
			}
		}
	}
}

// TestFaultContextKeepsOwnFaults checks a prepared context owns its fault
// list: overwriting the caller's slice after PrepareFaults, before the
// first query restricts it to any instance, changes no answer.
func TestFaultContextKeepsOwnFaults(t *testing.T) {
	g := WithRandomWeights(RandomConnected(50, 90, 5), 4, 6)
	dist, err := BuildDistanceLabels(g, 2, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewRouter(g, 2, 2, RouterOptions{Seed: 9, Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	pairs := batchPairs(g.N())
	for seed := uint64(1); seed <= 4; seed++ {
		faults := RandomFaults(g, 2, seed)
		orig := append([]EdgeID(nil), faults...)
		distCtx, err := dist.PrepareFaults(faults)
		if err != nil {
			t.Fatal(err)
		}
		routeCtx, err := router.PrepareFaults(faults)
		if err != nil {
			t.Fatal(err)
		}
		for i := range faults {
			faults[i] = EdgeID((int(faults[i]) + 1 + i) % g.M())
		}
		for _, p := range pairs {
			want, err := dist.Estimate(p.S, p.T, orig)
			if err != nil {
				t.Fatal(err)
			}
			got, err := distCtx.Estimate(p.S, p.T)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("seed %d pair (%d,%d): estimate %d after the caller's faults changed, want %d", seed, p.S, p.T, got, want)
			}
			wantFb, err := router.RouteForbidden(p.S, p.T, orig)
			if err != nil {
				t.Fatal(err)
			}
			gotFb, err := routeCtx.RouteForbidden(p.S, p.T)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotFb, wantFb) {
				t.Fatalf("seed %d pair (%d,%d): forbidden route %+v after the caller's faults changed, want %+v", seed, p.S, p.T, gotFb, wantFb)
			}
			wantFT, err := router.Route(p.S, p.T, NewEdgeSet(orig...))
			if err != nil {
				t.Fatal(err)
			}
			gotFT, err := routeCtx.Route(p.S, p.T)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotFT, wantFT) {
				t.Fatalf("seed %d pair (%d,%d): route %+v after the caller's faults changed, want %+v", seed, p.S, p.T, gotFT, wantFT)
			}
		}
	}
}

// firstEstimateAllocCeiling bounds the heap bytes of the first estimate on
// a fresh RandomConnected(2000,4000) distance labeling: the instances its
// scale walk reaches are prepared (about 64 KB), and nothing is built
// per vertex. A table of every vertex's label was about 13 MB here.
const firstEstimateAllocCeiling = 4 << 20

// TestDistFirstEstimateBuildsNoLabelTable checks the first estimate on a
// freshly built distance labeling allocates only for the instances it
// reaches, never a per-vertex label table.
func TestDistFirstEstimateBuildsNoLabelTable(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2000-vertex distance labeling; skipped in -short")
	}
	g := RandomConnected(2000, 4000, 1)
	d, err := BuildDistanceLabels(g, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := d.PrepareFaults(RandomFaults(g, 2, 7))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := ctx.Estimate(3, 1500); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > firstEstimateAllocCeiling {
		t.Fatalf("first estimate allocated %d bytes, want at most %d", got, firstEstimateAllocCeiling)
	}
}

// --- Error paths ---------------------------------------------------------

func TestBatchEmpty(t *testing.T) {
	g := Path(8)
	conn, err := BuildConnectivityLabels(g, ConnOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := BuildDistanceLabels(g, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewRouter(g, 1, 2, RouterOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// An empty pair list is a no-op: no results, no error, and the fault
	// set is not even validated.
	bogus := QueryBatch{Faults: []EdgeID{9999}}
	if got, err := conn.ConnectedBatch(bogus, BatchOptions{}); err != nil || len(got) != 0 {
		t.Fatalf("empty conn batch: got %v, %v", got, err)
	}
	if got, err := dist.EstimateBatch(bogus, BatchOptions{}); err != nil || len(got) != 0 {
		t.Fatalf("empty dist batch: got %v, %v", got, err)
	}
	if got, err := router.RouteBatch(bogus, BatchOptions{}); err != nil || len(got) != 0 {
		t.Fatalf("empty route batch: got %v, %v", got, err)
	}
	if got, err := router.RouteForbiddenBatch(bogus, BatchOptions{}); err != nil || len(got) != 0 {
		t.Fatalf("empty forbidden batch: got %v, %v", got, err)
	}
}

func TestBatchDuplicatePairsAndFaults(t *testing.T) {
	g := Cycle(12)
	conn, err := BuildConnectivityLabels(g, ConnOptions{Scheme: CutBased, MaxFaults: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate fault ids count once toward the bound f=2...
	batch := QueryBatch{
		Pairs:  []Pair{{S: 0, T: 6}, {S: 0, T: 6}, {S: 6, T: 0}},
		Faults: []EdgeID{1, 1, 7, 7},
	}
	got, err := conn.ConnectedBatch(batch, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// ...and duplicate pairs get identical independent answers.
	if got[0] != got[1] {
		t.Fatalf("duplicate pairs answered differently: %v", got)
	}
	// Cutting edges 1 and 7 of the 12-cycle separates 0 from 6 (vertices
	// 2..7 form one side).
	if got[0] != false || got[2] != false {
		t.Fatalf("expected disconnected under cycle cut, got %v", got)
	}
}

func TestBatchVertexOutOfRangeReportsFirstIndex(t *testing.T) {
	g := Path(10)
	conn, err := BuildConnectivityLabels(g, ConnOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	batch := QueryBatch{Pairs: []Pair{
		{S: 0, T: 1},
		{S: 2, T: 3},
		{S: 4, T: 99}, // first bad pair: index 2
		{S: 5, T: 6},
		{S: -1, T: 7}, // second bad pair must not win
	}}
	for _, par := range batchParallelisms {
		_, err := conn.ConnectedBatch(batch, BatchOptions{Parallelism: par})
		if err == nil {
			t.Fatalf("parallelism %d: expected error", par)
		}
		if !strings.Contains(err.Error(), "batch pair 2") {
			t.Fatalf("parallelism %d: error %q does not name the first failing index 2", par, err)
		}
	}
	dist, err := BuildDistanceLabels(g, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dist.EstimateBatch(batch, BatchOptions{}); err == nil || !strings.Contains(err.Error(), "batch pair 2") {
		t.Fatalf("dist batch error %v does not name index 2", err)
	}
	router, err := NewRouter(g, 1, 2, RouterOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := router.RouteBatch(batch, BatchOptions{}); err == nil || !strings.Contains(err.Error(), "batch pair 2") {
		t.Fatalf("route batch error %v does not name index 2", err)
	}
	if _, err := router.RouteForbiddenBatch(batch, BatchOptions{}); err == nil || !strings.Contains(err.Error(), "batch pair 2") {
		t.Fatalf("forbidden batch error %v does not name index 2", err)
	}
}

func TestBatchFaultValidation(t *testing.T) {
	g := RandomConnected(20, 30, 1)
	pairs := []Pair{{S: 0, T: 19}}

	// Fault id out of range fails preparation.
	conn, err := BuildConnectivityLabels(g, ConnOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.ConnectedBatch(QueryBatch{Pairs: pairs, Faults: []EdgeID{EdgeID(g.M())}}, BatchOptions{}); err == nil {
		t.Fatal("expected out-of-range fault id to fail")
	}
	if _, err := conn.PrepareFaults([]EdgeID{-1}); err == nil {
		t.Fatal("expected negative fault id to fail")
	}

	// Distinct faults beyond the scheme's f fail preparation: cut-based
	// connectivity (labels sized for MaxFaults), distance, and routing.
	cut, err := BuildConnectivityLabels(g, ConnOptions{Scheme: CutBased, MaxFaults: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	over := RandomFaults(g, 3, 2)
	if _, err := cut.ConnectedBatch(QueryBatch{Pairs: pairs, Faults: over}, BatchOptions{}); err == nil || !strings.Contains(err.Error(), "fault bound") {
		t.Fatalf("cut batch with |F|>f: got %v", err)
	}
	// The sketch-based labels are f-independent: the same fault set works.
	if _, err := conn.ConnectedBatch(QueryBatch{Pairs: pairs, Faults: over}, BatchOptions{}); err != nil {
		t.Fatalf("sketch batch with 3 faults: %v", err)
	}
	dist, err := BuildDistanceLabels(g, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dist.EstimateBatch(QueryBatch{Pairs: pairs, Faults: over}, BatchOptions{}); err == nil || !strings.Contains(err.Error(), "fault bound") {
		t.Fatalf("dist batch with |F|>f: got %v", err)
	}
	router, err := NewRouter(g, 2, 2, RouterOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := router.RouteBatch(QueryBatch{Pairs: pairs, Faults: over}, BatchOptions{}); err == nil || !strings.Contains(err.Error(), "fault bound") {
		t.Fatalf("route batch with |F|>f: got %v", err)
	}
	// Duplicates of 2 distinct ids stay within f=2.
	two := RandomFaults(g, 2, 2)
	dup := append(append([]EdgeID{}, two...), two...)
	if _, err := dist.EstimateBatch(QueryBatch{Pairs: pairs, Faults: dup}, BatchOptions{}); err != nil {
		t.Fatalf("dist batch with duplicated faults within bound: %v", err)
	}
}

// TestBatchErrorCodes proves every batch validation failure carries a
// stable machine-readable code and pair index through the error chain —
// the contract the HTTP serving layer relies on instead of parsing error
// text.
func TestBatchErrorCodes(t *testing.T) {
	g := Path(10)
	conn, err := BuildConnectivityLabels(g, ConnOptions{Scheme: CutBased, MaxFaults: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		batch    QueryBatch
		wantCode ErrorCode
		wantPair int
	}{
		{
			name:     "vertex out of range carries pair index",
			batch:    QueryBatch{Pairs: []Pair{{S: 0, T: 1}, {S: 4, T: 99}}},
			wantCode: CodeVertexRange,
			wantPair: 1,
		},
		{
			name:     "negative vertex carries pair index",
			batch:    QueryBatch{Pairs: []Pair{{S: -1, T: 1}}},
			wantCode: CodeVertexRange,
			wantPair: 0,
		},
		{
			name:     "fault id out of range is not pair-scoped",
			batch:    QueryBatch{Pairs: []Pair{{S: 0, T: 1}}, Faults: []EdgeID{EdgeID(g.M())}},
			wantCode: CodeFaultRange,
			wantPair: -1,
		},
		{
			name:     "negative fault id is not pair-scoped",
			batch:    QueryBatch{Pairs: []Pair{{S: 0, T: 1}}, Faults: []EdgeID{-1}},
			wantCode: CodeFaultRange,
			wantPair: -1,
		},
		{
			name:     "distinct faults beyond f",
			batch:    QueryBatch{Pairs: []Pair{{S: 0, T: 1}}, Faults: []EdgeID{0, 1, 2}},
			wantCode: CodeFaultBound,
			wantPair: -1,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, par := range batchParallelisms {
				_, err := conn.ConnectedBatch(c.batch, BatchOptions{Parallelism: par})
				if err == nil {
					t.Fatalf("parallelism %d: expected error", par)
				}
				var qe *QueryError
				if !errors.As(err, &qe) {
					t.Fatalf("parallelism %d: error %v carries no QueryError", par, err)
				}
				if got := CodeOf(err); got != c.wantCode {
					t.Fatalf("parallelism %d: code %q, want %q", par, got, c.wantCode)
				}
				if got := PairIndexOf(err); got != c.wantPair {
					t.Fatalf("parallelism %d: pair index %d, want %d", par, got, c.wantPair)
				}
			}
		})
	}
	// Non-validation errors classify as internal; nil classifies as "".
	if got := CodeOf(errors.New("boom")); got != CodeInternal {
		t.Fatalf("CodeOf(opaque) = %q, want %q", got, CodeInternal)
	}
	if got := CodeOf(nil); got != "" {
		t.Fatalf("CodeOf(nil) = %q, want empty", got)
	}
	if got := PairIndexOf(errors.New("boom")); got != -1 {
		t.Fatalf("PairIndexOf(opaque) = %d, want -1", got)
	}
}

// TestCanonicalFaults pins the canonical form: distinct ids ascending,
// nil for an empty list, input untouched.
func TestCanonicalFaults(t *testing.T) {
	in := []EdgeID{7, 3, 7, 1, 3, 9}
	orig := append([]EdgeID{}, in...)
	got := CanonicalFaults(in)
	if !reflect.DeepEqual(got, []EdgeID{1, 3, 7, 9}) {
		t.Fatalf("CanonicalFaults(%v) = %v", orig, got)
	}
	if !reflect.DeepEqual(in, orig) {
		t.Fatalf("input mutated: %v", in)
	}
	if got := CanonicalFaults(nil); got != nil {
		t.Fatalf("CanonicalFaults(nil) = %v, want nil", got)
	}
	if got := CanonicalFaults([]EdgeID{5}); !reflect.DeepEqual(got, []EdgeID{5}) {
		t.Fatalf("CanonicalFaults([5]) = %v", got)
	}
}

// TestBatchFaultOrderInsensitive proves decode results depend only on the
// fault set, not its order or duplication — the property that makes
// canonical-key context caching in the serve layer answer bit-identically.
func TestBatchFaultOrderInsensitive(t *testing.T) {
	g := RandomConnected(40, 70, 5)
	faults := RandomFaults(g, 3, 6)
	reversed := make([]EdgeID, len(faults))
	for i, id := range faults {
		reversed[len(faults)-1-i] = id
	}
	duplicated := append(append([]EdgeID{}, reversed...), faults...)
	pairs := batchPairs(g.N())

	conn, err := BuildConnectivityLabels(g, ConnOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := BuildDistanceLabels(g, 3, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, alt := range [][]EdgeID{reversed, duplicated, CanonicalFaults(duplicated)} {
		for _, p := range pairs {
			want, err := conn.Connected(p.S, p.T, faults)
			if err != nil {
				t.Fatal(err)
			}
			got, err := conn.Connected(p.S, p.T, alt)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("conn (%d,%d): faults %v -> %v, %v -> %v", p.S, p.T, faults, want, alt, got)
			}
			wantD, err := dist.Estimate(p.S, p.T, faults)
			if err != nil {
				t.Fatal(err)
			}
			gotD, err := dist.Estimate(p.S, p.T, alt)
			if err != nil {
				t.Fatal(err)
			}
			if gotD != wantD {
				t.Fatalf("dist (%d,%d): faults %v -> %d, %v -> %d", p.S, p.T, faults, wantD, alt, gotD)
			}
		}
	}
}

// TestBatchParallelismOversubscribed checks fan-out wider than the pair
// list and wider than the core count both work.
func TestBatchParallelismOversubscribed(t *testing.T) {
	g := Grid(5, 5)
	conn, err := BuildConnectivityLabels(g, ConnOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	batch := QueryBatch{Pairs: batchPairs(g.N()), Faults: RandomFaults(g, 2, 8)}
	want, err := conn.ConnectedBatch(batch, BatchOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{3, runtime.GOMAXPROCS(0) * 4, len(batch.Pairs) * 2} {
		got, err := conn.ConnectedBatch(batch, BatchOptions{Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parallelism %d: results differ", par)
		}
	}
}
