package ftrouting

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refAssignShards is the component-to-shard balancer as it was written
// before PlaceBalanced: a linear scan for the lightest shard per
// component.
func refAssignShards(compVerts []int, want int) ([]int32, int) {
	ncomp := len(compVerts)
	if want <= 0 || want > ncomp {
		want = ncomp
	}
	order := make([]int, ncomp)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if compVerts[order[a]] != compVerts[order[b]] {
			return compVerts[order[a]] > compVerts[order[b]]
		}
		return order[a] < order[b]
	})
	load := make([]int, want)
	shardOf := make([]int32, ncomp)
	for _, ci := range order {
		best := 0
		for s := 1; s < want; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		shardOf[ci] = int32(best)
		load[best] += compVerts[ci]
	}
	return shardOf, want
}

// refPlanPlacement is the shard-to-replica balancer as it was written
// before PlaceBalanced: the replicas re-sorted by load per shard.
func refPlanPlacement(shardBytes []int64, replicas, replication int) [][]int {
	if replication < 1 {
		replication = 1
	}
	if replication > replicas {
		replication = replicas
	}
	order := make([]int, len(shardBytes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if shardBytes[order[a]] != shardBytes[order[b]] {
			return shardBytes[order[a]] > shardBytes[order[b]]
		}
		return order[a] < order[b]
	})
	load := make([]int64, replicas)
	assign := make([][]int, len(shardBytes))
	ranked := make([]int, replicas)
	for _, id := range order {
		for i := range ranked {
			ranked[i] = i
		}
		sort.SliceStable(ranked, func(a, b int) bool {
			if load[ranked[a]] != load[ranked[b]] {
				return load[ranked[a]] < load[ranked[b]]
			}
			return ranked[a] < ranked[b]
		})
		for _, rep := range ranked[:replication] {
			assign[id] = append(assign[id], rep)
			load[rep] += shardBytes[id]
		}
	}
	return assign
}

// TestPlaceBalancedMatchesReferences checks that both balancers built on
// PlaceBalanced place every item where their former bodies did, over
// random weights (small ranges force ties), bin counts and replication
// 1-3.
func TestPlaceBalancedMatchesReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 3000; trial++ {
		items := rng.Intn(30)
		maxW := []int{1, 4, 1000}[trial%3]
		weights := make([]int64, items)
		verts := make([]int, items)
		for i := range weights {
			verts[i] = 1 + rng.Intn(maxW)
			weights[i] = int64(verts[i])
		}
		bins := 1 + rng.Intn(8)
		for rep := 1; rep <= 3; rep++ {
			got, want := PlaceBalanced(weights, bins, rep), refPlanPlacement(weights, bins, rep)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("weights %v, %d bins, replication %d: got %v, want %v", weights, bins, rep, got, want)
			}
		}
		shards := rng.Intn(items + 3)
		gotOf, gotN := assignShards(verts, shards)
		wantOf, wantN := refAssignShards(verts, shards)
		if gotN != wantN || !reflect.DeepEqual(gotOf, wantOf) {
			t.Fatalf("components %v into %d shards: got %v (%d), want %v (%d)", verts, shards, gotOf, gotN, wantOf, wantN)
		}
	}
}

// TestAssignShardsOnePerComponent pins what a shard count of 0 does: one
// shard per component, largest component first, not the identity.
func TestAssignShardsOnePerComponent(t *testing.T) {
	shardOf, n := assignShards([]int{1, 3, 2}, 0)
	if want := []int32{2, 0, 1}; n != 3 || !reflect.DeepEqual(shardOf, want) {
		t.Fatalf("assignShards = %v (%d shards), want %v (3)", shardOf, n, want)
	}
}
