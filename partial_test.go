package ftrouting

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// partialQuery is one query entry point of a scheme, over vertex and
// fault edge ids.
type partialQuery func(s, t int32, faults []EdgeID) (any, error)

// queryEntryPoints returns every pair query entry point of a connectivity
// labeling, distance labeling or router, single-pair and prepared.
func queryEntryPoints(scheme any) map[string]partialQuery {
	switch x := scheme.(type) {
	case *ConnLabels:
		return map[string]partialQuery{
			"Connected": func(s, t int32, faults []EdgeID) (any, error) { return x.Connected(s, t, faults) },
			"FaultContext.Connected": func(s, t int32, faults []EdgeID) (any, error) {
				ctx, err := x.PrepareFaults(faults)
				if err != nil {
					return nil, err
				}
				return ctx.Connected(s, t)
			},
		}
	case *DistLabels:
		return map[string]partialQuery{
			"Estimate": func(s, t int32, faults []EdgeID) (any, error) { return x.Estimate(s, t, faults) },
			"FaultContext.Estimate": func(s, t int32, faults []EdgeID) (any, error) {
				ctx, err := x.PrepareFaults(faults)
				if err != nil {
					return nil, err
				}
				return ctx.Estimate(s, t)
			},
		}
	case *Router:
		prepared := func(faults []EdgeID) (*RouteFaultContext, error) { return x.PrepareFaults(faults) }
		return map[string]partialQuery{
			"Route": func(s, t int32, faults []EdgeID) (any, error) { return x.Route(s, t, NewEdgeSet(faults...)) },
			"RouteForbidden": func(s, t int32, faults []EdgeID) (any, error) {
				return x.RouteForbidden(s, t, faults)
			},
			"FaultContext.Route": func(s, t int32, faults []EdgeID) (any, error) {
				ctx, err := prepared(faults)
				if err != nil {
					return nil, err
				}
				return ctx.Route(s, t)
			},
			"FaultContext.RouteForbidden": func(s, t int32, faults []EdgeID) (any, error) {
				ctx, err := prepared(faults)
				if err != nil {
					return nil, err
				}
				return ctx.RouteForbidden(s, t)
			},
		}
	}
	panic(fmt.Sprintf("unsupported scheme %T", scheme))
}

// TestPartialSchemeForeignInputs queries a loaded shard's partial scheme
// directly, through every query entry point of the cut, sketch, distance
// and router kinds. An endpoint in a component the shard does not hold is
// an error, never a panic or an answer; fault edges in such components
// are ignored, so an in-shard pair answers exactly as the whole scheme
// does under the same fault list.
func TestPartialSchemeForeignInputs(t *testing.T) {
	g := Islands(4, 20, 10, 1)
	build := map[string]func() (any, error){
		"cut": func() (any, error) {
			return BuildConnectivityLabels(g, ConnOptions{Scheme: CutBased, MaxFaults: 4, Seed: 3})
		},
		"sketch": func() (any, error) {
			return BuildConnectivityLabels(g, ConnOptions{Scheme: SketchBased, Seed: 3})
		},
		"dist":   func() (any, error) { return BuildDistanceLabels(g, 4, 2, 3) },
		"router": func() (any, error) { return NewRouter(g, 4, 2, RouterOptions{Seed: 3}) },
	}
	for kind, b := range build {
		t.Run(kind, func(t *testing.T) {
			whole, err := b()
			if err != nil {
				t.Fatal(err)
			}
			m, err := SaveSharded(t.TempDir(), whole, ShardOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sh, err := m.LoadShard(0)
			if err != nil {
				t.Fatal(err)
			}
			var held, foreign []int32
			for v := int32(0); v < int32(g.N()); v++ {
				if m.ShardOf(v) == 0 {
					held = append(held, v)
				} else {
					foreign = append(foreign, v)
				}
			}
			// Two foreign vertices of one component: connected, with a finite
			// whole-scheme answer.
			f0 := foreign[0]
			var f1 int32 = -1
			for _, v := range foreign[1:] {
				if m.comp[v] == m.comp[f0] {
					f1 = v
					break
				}
			}
			if f1 < 0 {
				t.Fatalf("foreign vertex %d has no foreign component mate", f0)
			}
			var heldFaults, foreignFaults []EdgeID
			for id := EdgeID(0); int(id) < g.M(); id++ {
				if m.ShardOf(g.Edge(id).U) == 0 {
					heldFaults = append(heldFaults, id)
				} else {
					foreignFaults = append(foreignFaults, id)
				}
			}
			faults := []EdgeID{heldFaults[3], foreignFaults[5], heldFaults[11], foreignFaults[20], foreignFaults[5]}

			// The label-only decoder gets a foreign component's labels from
			// the whole scheme, as the partial one cannot make them.
			if w, ok := whole.(*ConnLabels); ok {
				_, err := sh.Scheme().(*ConnLabels).Query(w.VertexLabel(f0), w.VertexLabel(f1), nil)
				if err == nil || !strings.Contains(err.Error(), "the partial scheme does not hold") {
					t.Fatalf("Query on foreign labels: error %v, want a foreign-component error", err)
				}
			}
			wantQ, gotQ := queryEntryPoints(whole), queryEntryPoints(sh.Scheme())
			for name, q := range gotQ {
				for _, p := range [][2]int32{{held[0], f0}, {f0, held[0]}, {f0, f1}, {f1, f1}} {
					for _, fl := range [][]EdgeID{nil, faults} {
						if _, err := q(p[0], p[1], fl); err == nil || !strings.Contains(err.Error(), "lies in a component the partial scheme does not hold") {
							t.Fatalf("%s(%d,%d) faults %v: error %v, want a foreign-endpoint error", name, p[0], p[1], fl, err)
						}
					}
				}
				for _, p := range [][2]int32{{held[0], held[19]}, {held[2], held[9]}, {held[4], held[4]}, {held[17], held[1]}} {
					want, werr := wantQ[name](p[0], p[1], faults)
					got, gerr := q(p[0], p[1], faults)
					if werr != nil || gerr != nil {
						t.Fatalf("%s(%d,%d): whole error %v, partial error %v", name, p[0], p[1], werr, gerr)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s(%d,%d) faults %v: partial %+v, whole %+v", name, p[0], p[1], faults, got, want)
					}
				}
			}
		})
	}
}

// TestPartialSchemeLabelAccessors asks a loaded shard's partial scheme for
// label sizes through every label accessor. Held vertices and edges read
// as in the whole scheme; a foreign vertex or edge panics with the error
// the query entry points return for a foreign endpoint, rather than
// dereferencing a missing component or answering from a stub label.
func TestPartialSchemeLabelAccessors(t *testing.T) {
	g := Islands(4, 20, 10, 1)
	build := map[string]func() (any, error){
		"cut": func() (any, error) {
			return BuildConnectivityLabels(g, ConnOptions{Scheme: CutBased, MaxFaults: 4, Seed: 3})
		},
		"sketch": func() (any, error) {
			return BuildConnectivityLabels(g, ConnOptions{Scheme: SketchBased, Seed: 3})
		},
		"dist":   func() (any, error) { return BuildDistanceLabels(g, 4, 2, 3) },
		"router": func() (any, error) { return NewRouter(g, 4, 2, RouterOptions{Seed: 3}) },
	}
	// labelAccessor is one label-size accessor, of a vertex or of an edge
	// (EdgeID is an int32).
	type labelAccessor struct {
		edge bool
		bits func(id int32) int
	}
	accessors := func(scheme any) map[string]labelAccessor {
		switch x := scheme.(type) {
		case *ConnLabels:
			return map[string]labelAccessor{
				"VertexLabel": {false, func(v int32) int { return x.VertexLabel(v).Bits() }},
				"EdgeLabel":   {true, func(e EdgeID) int { return x.EdgeLabel(e).Bits() }},
			}
		case *DistLabels:
			return map[string]labelAccessor{
				"VertexLabelBits": {false, x.VertexLabelBits},
				"EdgeLabelBits":   {true, x.EdgeLabelBits},
			}
		case *Router:
			return map[string]labelAccessor{"LabelBits": {false, x.LabelBits}}
		}
		panic(fmt.Sprintf("unsupported scheme %T", scheme))
	}
	// call returns f(id) and the value it panicked with, if any.
	call := func(f func(int32) int, id int32) (bits int, panicked any) {
		defer func() { panicked = recover() }()
		return f(id), nil
	}
	for kind, b := range build {
		t.Run(kind, func(t *testing.T) {
			whole, err := b()
			if err != nil {
				t.Fatal(err)
			}
			m, err := SaveSharded(t.TempDir(), whole, ShardOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sh, err := m.LoadShard(0)
			if err != nil {
				t.Fatal(err)
			}
			// Shard 0 holds island 0, vertices 0..19.
			var heldE, foreignE []EdgeID
			for id := EdgeID(0); int(id) < g.M(); id++ {
				if m.ShardOf(g.Edge(id).U) == 0 {
					heldE = append(heldE, id)
				} else {
					foreignE = append(foreignE, id)
				}
			}
			held := map[bool][]int32{false: {0, 3, 19}, true: heldE[:3]}
			foreign := map[bool][]int32{false: {20, 79}, true: {foreignE[0], foreignE[len(foreignE)-1]}}
			wantA := accessors(whole)
			for name, a := range accessors(sh.Scheme()) {
				for _, id := range held[a.edge] {
					got, p := call(a.bits, id)
					if want := wantA[name].bits(id); p != nil || got != want {
						t.Fatalf("%s(%d): partial %d (panic %v), whole %d", name, id, got, p, want)
					}
				}
				for _, id := range foreign[a.edge] {
					got, p := call(a.bits, id)
					err, _ := p.(error)
					if err == nil || !strings.Contains(err.Error(), "lies in a component the partial scheme does not hold") {
						t.Fatalf("%s(%d) = %d, panic %v; want a panic with the foreign-endpoint error", name, id, got, p)
					}
				}
			}
		})
	}
}
