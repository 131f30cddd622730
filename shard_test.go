package ftrouting

// Sharded persistence and planner tests: the equivalence suite proving a
// manifest + shards answers every batch — results, cross-component
// pairs, error envelopes — bit-identically to the monolithic scheme it
// was split from, plus the corruption suite proving every mutated byte
// of a manifest or shard file is rejected with a typed error, and the
// cross-binding suite proving a shard file cannot be served under the
// wrong manifest.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// shardDisconn builds the multi-component workhorse: a clique component,
// a weighted path component, a cycle, and an isolated vertex.
func shardDisconn() *Graph {
	g := NewGraph(24)
	for i := int32(0); i < 5; i++ {
		for j := i + 1; j < 6; j++ {
			g.MustAddEdge(i, j, 1)
		}
	}
	for i := int32(6); i < 13; i++ {
		g.MustAddEdge(i, i+1, int64(1+i%4))
	}
	for i := int32(14); i < 22; i++ {
		g.MustAddEdge(i, i+1, 2)
	}
	g.MustAddEdge(14, 22, 2)
	return g
}

// shardBatches yields deterministic batches spanning shards: in-shard
// pairs, cross-component pairs, equal endpoints, duplicate pairs, and
// fault lists with duplicates.
func shardBatches(g *Graph) []QueryBatch {
	n := int32(g.N())
	pairs := []Pair{}
	for i := int32(0); i < 10 && i < n; i++ {
		pairs = append(pairs, Pair{S: (i * 5) % n, T: (i*11 + n/2) % n})
	}
	pairs = append(pairs, Pair{S: 0, T: 0}, Pair{S: 0, T: n - 1}, Pair{S: 0, T: n - 1})
	var batches []QueryBatch
	for nf := 0; nf <= 3 && nf*3 < g.M(); nf++ {
		faults := RandomFaults(g, nf, uint64(17+nf))
		if nf >= 2 {
			faults = append(faults, faults[0]) // duplicate fault id
		}
		batches = append(batches, QueryBatch{Pairs: pairs, Faults: faults})
	}
	return batches
}

// loadPlanContexts loads every shard a plan touches and prepares its
// context (the test-side counterpart of the serve router).
func loadPlanContexts(t *testing.T, m *Manifest, plan *BatchPlan) map[int]any {
	t.Helper()
	ctxs := make(map[int]any)
	for _, id := range plan.ShardIDs() {
		sh, err := m.LoadShard(id)
		if err != nil {
			t.Fatalf("loading shard %d: %v", id, err)
		}
		ctx, err := plan.PrepareShard(sh)
		if err != nil {
			t.Fatalf("preparing shard %d: %v", id, err)
		}
		ctxs[id] = ctx
	}
	return ctxs
}

// shardGroupings exercises both one-shard-per-component and grouped
// manifests.
func shardGroupings(ncomp int) []ShardOptions {
	opts := []ShardOptions{{Shards: 0}}
	if ncomp > 1 {
		opts = append(opts, ShardOptions{Shards: 2}, ShardOptions{Shards: 1})
	}
	return opts
}

func TestShardedConnEquivalence(t *testing.T) {
	tops := connTopologies()
	tops["multicomp"] = shardDisconn()
	for name, g := range tops {
		for _, scheme := range []ConnSchemeKind{CutBased, SketchBased} {
			t.Run(fmt.Sprintf("%s/scheme%d", name, scheme), func(t *testing.T) {
				built, err := BuildConnectivityLabels(g, ConnOptions{Scheme: scheme, MaxFaults: 4, Seed: 42})
				if err != nil {
					t.Fatal(err)
				}
				for _, sopts := range shardGroupings(len(built.subs)) {
					m, err := SaveShardedConn(t.TempDir(), built, sopts)
					if err != nil {
						t.Fatal(err)
					}
					for bi, batch := range shardBatches(g) {
						want, werr := built.ConnectedBatch(batch, BatchOptions{})
						plan, perr := m.PlanBatch(batch)
						if perr != nil {
							t.Fatalf("batch %d: plan: %v (monolithic: %v)", bi, perr, werr)
						}
						got, gerr := plan.ConnectedBatch(loadPlanContexts(t, m, plan), BatchOptions{})
						if (werr == nil) != (gerr == nil) {
							t.Fatalf("batch %d: errors diverge: %v vs %v", bi, werr, gerr)
						}
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("batch %d (shards=%d): %v != %v", bi, sopts.Shards, got, want)
						}
					}
				}
			})
		}
	}
}

func TestShardedDistEquivalence(t *testing.T) {
	tops := distTopologies()
	tops["multicomp"] = shardDisconn()
	for name, g := range tops {
		t.Run(name, func(t *testing.T) {
			built, err := BuildDistanceLabels(g, 3, 2, 42)
			if err != nil {
				t.Fatal(err)
			}
			ncomp := 1
			if name == "multicomp" {
				ncomp = 4
			}
			for _, sopts := range shardGroupings(ncomp) {
				m, err := SaveShardedDist(t.TempDir(), built, sopts)
				if err != nil {
					t.Fatal(err)
				}
				for bi, batch := range shardBatches(g) {
					want, werr := built.EstimateBatch(batch, BatchOptions{})
					plan, perr := m.PlanBatch(batch)
					if perr != nil {
						t.Fatalf("batch %d: plan: %v (monolithic: %v)", bi, perr, werr)
					}
					got, gerr := plan.EstimateBatch(loadPlanContexts(t, m, plan), BatchOptions{})
					if (werr == nil) != (gerr == nil) {
						t.Fatalf("batch %d: errors diverge: %v vs %v", bi, werr, gerr)
					}
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("batch %d (shards=%d): %v != %v", bi, sopts.Shards, got, want)
					}
				}
			}
		})
	}
}

func TestShardedRouterEquivalence(t *testing.T) {
	tops := map[string]*Graph{
		"random":    RandomConnected(16, 24, 3),
		"weighted":  WithRandomWeights(RandomConnected(14, 21, 5), 6, 11),
		"multicomp": shardDisconn(),
	}
	for name, g := range tops {
		t.Run(name, func(t *testing.T) {
			built, err := NewRouter(g, 4, 2, RouterOptions{Seed: 42, Balanced: true})
			if err != nil {
				t.Fatal(err)
			}
			m, err := SaveShardedRouter(t.TempDir(), built, ShardOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for bi, batch := range shardBatches(g) {
				for _, forbidden := range []bool{false, true} {
					var want, got []RouteResult
					var werr, gerr error
					if forbidden {
						want, werr = built.RouteForbiddenBatch(batch, BatchOptions{})
					} else {
						want, werr = built.RouteBatch(batch, BatchOptions{})
					}
					plan, perr := m.PlanBatch(batch)
					if perr != nil {
						t.Fatalf("batch %d: plan: %v (monolithic: %v)", bi, perr, werr)
					}
					ctxs := loadPlanContexts(t, m, plan)
					if forbidden {
						got, gerr = plan.RouteForbiddenBatch(ctxs, BatchOptions{})
					} else {
						got, gerr = plan.RouteBatch(ctxs, BatchOptions{})
					}
					if (werr == nil) != (gerr == nil) {
						t.Fatalf("batch %d forbidden=%v: errors diverge: %v vs %v", bi, forbidden, werr, gerr)
					}
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("batch %d forbidden=%v: results diverge\n got %+v\nwant %+v", bi, forbidden, got, want)
					}
				}
			}
		})
	}
}

// TestShardedErrorEquivalence proves the planner reproduces the batch
// API's errors exactly: code, failing-pair index, and message text.
func TestShardedErrorEquivalence(t *testing.T) {
	g := shardDisconn()
	built, err := BuildConnectivityLabels(g, ConnOptions{Scheme: CutBased, MaxFaults: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	m, err := SaveShardedConn(t.TempDir(), built, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := int32(g.N())
	cases := map[string]QueryBatch{
		"vertex-s":    {Pairs: []Pair{{0, 1}, {-3, 2}, {n, 0}}, Faults: []EdgeID{1}},
		"vertex-t":    {Pairs: []Pair{{0, 1}, {2, n + 5}}},
		"fault-range": {Pairs: []Pair{{0, 1}}, Faults: []EdgeID{0, EdgeID(g.M())}},
		"fault-bound": {Pairs: []Pair{{0, 1}}, Faults: []EdgeID{0, 1, 2}},
	}
	for name, batch := range cases {
		t.Run(name, func(t *testing.T) {
			_, werr := built.ConnectedBatch(batch, BatchOptions{Parallelism: 1})
			if werr == nil {
				t.Fatalf("monolithic batch unexpectedly succeeded")
			}
			var got []bool
			plan, gerr := m.PlanBatch(batch)
			if gerr == nil {
				got, gerr = plan.ConnectedBatch(loadPlanContexts(t, m, plan), BatchOptions{Parallelism: 1})
			}
			if gerr == nil {
				t.Fatalf("sharded batch answered %v, monolithic failed with %v", got, werr)
			}
			if CodeOf(werr) != CodeOf(gerr) {
				t.Fatalf("codes diverge: %q vs %q", CodeOf(werr), CodeOf(gerr))
			}
			if PairIndexOf(werr) != PairIndexOf(gerr) {
				t.Fatalf("pair indices diverge: %d vs %d", PairIndexOf(werr), PairIndexOf(gerr))
			}
			if werr.Error() != gerr.Error() {
				t.Fatalf("messages diverge:\n mono  %q\n shard %q", werr.Error(), gerr.Error())
			}
		})
	}
	// Empty pair lists bypass even fault validation, exactly like the
	// batch API.
	plan, err := m.PlanBatch(QueryBatch{Faults: []EdgeID{-999}})
	if err != nil {
		t.Fatalf("empty batch validated faults: %v", err)
	}
	if res, err := plan.ConnectedBatch(map[int]any{}, BatchOptions{}); err != nil || res != nil {
		t.Fatalf("empty plan = (%v, %v), want (nil, nil)", res, err)
	}
}

// TestPlanExecutorsRejectBadContexts hands each of the four plan
// executors a context map with a planned shard missing, or with a
// context of the wrong kind (or nil) in a planned shard's slot: every
// case must be an error, never a panic, at any parallelism. The error
// names the shard and carries no pair index: the executor checks every
// touched shard before any pair runs, so a pair never fails on it.
func TestPlanExecutorsRejectBadContexts(t *testing.T) {
	g := shardDisconn()
	conn, err := BuildConnectivityLabels(g, ConnOptions{Scheme: CutBased, MaxFaults: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := BuildDistanceLabels(g, 2, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewRouter(g, 2, 2, RouterOptions{Seed: 7, Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	faults := []EdgeID{1}
	connCtx, err := conn.PrepareFaults(faults)
	if err != nil {
		t.Fatal(err)
	}
	distCtx, err := dist.PrepareFaults(faults)
	if err != nil {
		t.Fatal(err)
	}
	routeCtx, err := router.PrepareFaults(faults)
	if err != nil {
		t.Fatal(err)
	}
	connM, err := SaveShardedConn(t.TempDir(), conn, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	distM, err := SaveShardedDist(t.TempDir(), dist, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	routeM, err := SaveShardedRouter(t.TempDir(), router, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// In-shard pairs on three components, a cross-component pair and an
	// equal-endpoint pair.
	batch := QueryBatch{Pairs: []Pair{{0, 5}, {6, 13}, {14, 20}, {0, 20}, {3, 3}}, Faults: faults}

	type executor struct {
		name  string
		m     *Manifest
		wrong any // a prepared context of another kind
		run   func(p *BatchPlan, ctxs map[int]any, opts BatchOptions) error
	}
	executors := []executor{
		{"ConnectedBatch", connM, distCtx, func(p *BatchPlan, ctxs map[int]any, opts BatchOptions) error {
			_, err := p.ConnectedBatch(ctxs, opts)
			return err
		}},
		{"EstimateBatch", distM, routeCtx, func(p *BatchPlan, ctxs map[int]any, opts BatchOptions) error {
			_, err := p.EstimateBatch(ctxs, opts)
			return err
		}},
		{"RouteBatch", routeM, distCtx, func(p *BatchPlan, ctxs map[int]any, opts BatchOptions) error {
			_, err := p.RouteBatch(ctxs, opts)
			return err
		}},
		{"RouteForbiddenBatch", routeM, connCtx, func(p *BatchPlan, ctxs map[int]any, opts BatchOptions) error {
			_, err := p.RouteForbiddenBatch(ctxs, opts)
			return err
		}},
	}
	for _, ex := range executors {
		plan, err := ex.m.PlanBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		ids := plan.ShardIDs()
		if len(ids) < 3 {
			t.Fatalf("%s: plan touches %d shards, want 3", ex.name, len(ids))
		}
		good := loadPlanContexts(t, ex.m, plan)
		if err := ex.run(plan, good, BatchOptions{Parallelism: 1}); err != nil {
			t.Fatalf("%s: well-formed contexts failed: %v", ex.name, err)
		}
		// Each case swaps one planned shard's slot; the last shard checks
		// that a bad context late in the pair order is still caught.
		for _, id := range []int{ids[0], ids[len(ids)-1]} {
			cases := map[string]func(map[int]any){
				"missing": func(c map[int]any) { delete(c, id) },
				"nil":     func(c map[int]any) { c[id] = nil },
				"wrong":   func(c map[int]any) { c[id] = ex.wrong },
			}
			for cname, mutate := range cases {
				for _, par := range []int{1, 4} {
					ctxs := make(map[int]any, len(good))
					for k, v := range good {
						ctxs[k] = v
					}
					mutate(ctxs)
					func() {
						defer func() {
							if r := recover(); r != nil {
								t.Fatalf("%s shard %d %s par %d: panic: %v", ex.name, id, cname, par, r)
							}
						}()
						err := ex.run(plan, ctxs, BatchOptions{Parallelism: par})
						if err == nil {
							t.Fatalf("%s shard %d %s par %d: no error", ex.name, id, cname, par)
						}
						if i := PairIndexOf(err); i != -1 {
							t.Fatalf("%s shard %d %s par %d: error %q is scoped to pair %d", ex.name, id, cname, par, err, i)
						}
						if want := fmt.Sprintf("shard %d", id); !strings.Contains(err.Error(), want) {
							t.Fatalf("%s shard %d %s par %d: error %q does not name the shard", ex.name, id, cname, par, err)
						}
					}()
				}
			}
		}
	}
}

// TestShardedDistHeavyEdgeFaultCount pins the batch paths' fault counting
// against the decoder's: an edge heavier than the top-scale radius
// appears in no cluster instance, so the decoder counts every occurrence
// of it, not just the distinct id. The planner and the monolithic
// PrepareFaults share one id-based count; both must reproduce the
// label-based count of the per-pair Estimate from topology alone.
func TestShardedDistHeavyEdgeFaultCount(t *testing.T) {
	g := NewGraph(8)
	heavy := g.MustAddEdge(0, 1, 50) // weight far above 2*ecc bound
	g.MustAddEdge(0, 2, 1)
	g.MustAddEdge(2, 1, 1)
	g.MustAddEdge(1, 3, 1)
	g.MustAddEdge(3, 4, 1)
	for i := int32(5); i < 7; i++ {
		g.MustAddEdge(i, i+1, 1)
	}
	built, err := BuildDistanceLabels(g, 4, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	m, err := SaveShardedDist(t.TempDir(), built, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Duplicated heavy edge: countDistinct sees 2 faults; a normal edge
	// duplicated still counts once.
	batch := QueryBatch{
		Pairs:  []Pair{{0, 4}, {2, 3}, {0, 6}},
		Faults: []EdgeID{heavy, heavy, 1, 1},
	}
	want, err := built.EstimateBatch(batch, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := m.PlanBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.EstimateBatch(loadPlanContexts(t, m, plan), BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("estimates diverge with entry-less faults: %v != %v", got, want)
	}
	for i, p := range batch.Pairs {
		single, err := built.Estimate(p.S, p.T, batch.Faults)
		if err != nil {
			t.Fatal(err)
		}
		if single != want[i] {
			t.Fatalf("pair (%d,%d): batch estimate %d, per-pair Estimate %d", p.S, p.T, want[i], single)
		}
	}
}

// shardedFixture saves one sharded conn scheme and returns the manifest
// path plus every file's bytes.
func shardedFixture(t *testing.T) (dir string, files map[string][]byte) {
	t.Helper()
	g := shardDisconn()
	built, err := BuildConnectivityLabels(g, ConnOptions{Scheme: SketchBased, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	m, err := SaveShardedConn(dir, built, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	files = make(map[string][]byte)
	names := []string{ManifestFileName}
	for _, info := range m.Shards() {
		names = append(names, info.Name)
	}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = data
	}
	return dir, files
}

// typedLoadError asserts an error is one of the codec's typed sentinels
// (or an os-level error for unreadable files), never nothing.
func typedLoadError(t *testing.T, context string, err error) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: accepted", context)
	}
	if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) &&
		!errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrChecksum) &&
		!errors.Is(err, ErrVersion) && !errors.Is(err, ErrKind) {
		t.Fatalf("%s: untyped error %v", context, err)
	}
}

func TestManifestRejectsCorruption(t *testing.T) {
	dir, files := shardedFixture(t)
	path := filepath.Join(dir, ManifestFileName)
	data := files[ManifestFileName]
	for i := 0; i < len(data); i++ {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0xFF
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadManifest(path)
		typedLoadError(t, fmt.Sprintf("manifest byte %d flipped", i), err)
	}
	// Truncations at every boundary.
	for cut := 0; cut < len(data); cut += 7 {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadManifest(path)
		typedLoadError(t, fmt.Sprintf("manifest truncated to %d bytes", cut), err)
	}
}

func TestShardRejectsCorruption(t *testing.T) {
	dir, files := shardedFixture(t)
	m, err := LoadManifest(filepath.Join(dir, ManifestFileName))
	if err != nil {
		t.Fatal(err)
	}
	name := m.Shards()[0].Name
	path := filepath.Join(dir, name)
	data := files[name]
	for i := 0; i < len(data); i++ {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0xFF
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := m.LoadShard(0)
		typedLoadError(t, fmt.Sprintf("shard byte %d flipped", i), err)
	}
	for cut := 0; cut < len(data); cut += 5 {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := m.LoadShard(0)
		typedLoadError(t, fmt.Sprintf("shard truncated to %d bytes", cut), err)
	}
}

// TestShardCrossBinding proves a shard file cannot be served under the
// wrong manifest: a sibling shard in the wrong slot and a shard from a
// different build (equal topology, different seed) are both rejected,
// even though each file's own checksum verifies.
func TestShardCrossBinding(t *testing.T) {
	g := shardDisconn()
	built, err := BuildConnectivityLabels(g, ConnOptions{Scheme: SketchBased, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	m, err := SaveShardedConn(dir, built, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumShards() < 2 {
		t.Fatalf("fixture needs >= 2 shards, got %d", m.NumShards())
	}
	infos := m.Shards()
	// Sibling shard in the wrong slot: shard id / recorded checksum
	// mismatch.
	swap, err := os.ReadFile(filepath.Join(dir, infos[1].Name))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, infos[0].Name), swap, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.LoadShard(0); err == nil {
		t.Fatal("accepted sibling shard in the wrong slot")
	}
	// Same split of a different build: the digest binds shards to their
	// scheme, so a foreign shard with the right id is still rejected.
	other, err := BuildConnectivityLabels(g, ConnOptions{Scheme: SketchBased, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	otherDir := t.TempDir()
	if _, err := SaveShardedConn(otherDir, other, ShardOptions{}); err != nil {
		t.Fatal(err)
	}
	foreign, err := os.ReadFile(filepath.Join(otherDir, infos[0].Name))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, infos[0].Name), foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = m.LoadShard(0)
	typedLoadError(t, "foreign build's shard", err)
}

// TestShardedSaveStable pins the sharded representation: saving the same
// scheme twice yields byte-identical manifests and shard files.
func TestShardedSaveStable(t *testing.T) {
	g := shardDisconn()
	built, err := BuildConnectivityLabels(g, ConnOptions{Scheme: CutBased, MaxFaults: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// The typed wrapper and SaveSharded on the scheme as an any write the
	// same files.
	read := func(save func(dir string) (*Manifest, error)) map[string][]byte {
		dir := t.TempDir()
		m, err := save(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		names := []string{ManifestFileName}
		for _, info := range m.Shards() {
			names = append(names, info.Name)
		}
		for _, name := range names {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			out[name] = data
		}
		return out
	}
	a := read(func(dir string) (*Manifest, error) { return SaveShardedConn(dir, built, ShardOptions{Shards: 2}) })
	b := read(func(dir string) (*Manifest, error) { return SaveSharded(dir, any(built), ShardOptions{Shards: 2}) })
	if len(a) != len(b) {
		t.Fatalf("file sets differ: %d vs %d", len(a), len(b))
	}
	for name, data := range a {
		if !reflect.DeepEqual(data, b[name]) {
			t.Fatalf("%s differs between saves", name)
		}
	}
	if _, err := SaveSharded(t.TempDir(), g, ShardOptions{}); err == nil {
		t.Fatal("SaveSharded accepted a graph as a scheme")
	}
}
