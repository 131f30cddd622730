package ftrouting

import (
	"testing"

	"ftrouting/internal/graph"
	"ftrouting/internal/xrand"
)

func TestConnLabelsBothSchemes(t *testing.T) {
	for _, scheme := range []ConnSchemeKind{CutBased, SketchBased} {
		g := RandomConnected(40, 60, 3)
		labels, err := BuildConnectivityLabels(g, ConnOptions{Scheme: scheme, MaxFaults: 4, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.NewSplitMix64(9)
		for q := 0; q < 40; q++ {
			faults := RandomFaults(g, rng.Intn(5), uint64(q))
			s, d := int32(rng.Intn(40)), int32(rng.Intn(40))
			got, err := labels.Connected(s, d, faults)
			if err != nil {
				t.Fatal(err)
			}
			want := Distance(g, s, d, NewEdgeSet(faults...)) != Inf
			if got != want {
				t.Fatalf("scheme %d q %d: got %v want %v", scheme, q, got, want)
			}
		}
	}
}

func TestConnLabelsDisconnectedGraph(t *testing.T) {
	g := NewGraph(7)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 0, 1)
	g.MustAddEdge(3, 4, 1)
	g.MustAddEdge(4, 5, 1)
	for _, scheme := range []ConnSchemeKind{CutBased, SketchBased} {
		labels, err := BuildConnectivityLabels(g, ConnOptions{Scheme: scheme, MaxFaults: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		cases := []struct {
			s, d int32
			want bool
		}{
			{0, 2, true}, {0, 3, false}, {3, 5, true}, {6, 6, true}, {6, 0, false},
		}
		for _, c := range cases {
			got, err := labels.Connected(c.s, c.d, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Fatalf("scheme %d: Connected(%d,%d) = %v, want %v", scheme, c.s, c.d, got, c.want)
			}
		}
		// Fault inside one component does not affect others.
		cut, _ := g.FindEdge(3, 4)
		got, err := labels.Connected(0, 2, []EdgeID{cut})
		if err != nil || !got {
			t.Fatalf("scheme %d: cross-component fault affected query: %v %v", scheme, got, err)
		}
		got, err = labels.Connected(3, 5, []EdgeID{cut})
		if err != nil || got {
			t.Fatalf("scheme %d: fault not applied: %v %v", scheme, got, err)
		}
	}
}

func TestConnLabelBitsReasonable(t *testing.T) {
	g := RandomConnected(200, 300, 5)
	cut, err := BuildConnectivityLabels(g, ConnOptions{Scheme: CutBased, MaxFaults: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := BuildConnectivityLabels(g, ConnOptions{Scheme: SketchBased, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Cut-based vertex labels are tiny (O(log n)); edge labels O(f+log n).
	if b := cut.VertexLabel(0).Bits(); b > 64 {
		t.Fatalf("cut vertex label %d bits", b)
	}
	if b := cut.EdgeLabel(0).Bits(); b > 200 {
		t.Fatalf("cut edge label %d bits", b)
	}
	// Sketch-based vertex labels are small; tree-edge labels polylog^3.
	if b := sk.VertexLabel(0).Bits(); b > 128 {
		t.Fatalf("sketch vertex label %d bits", b)
	}
	if sk.EdgeLabel(0).Bits() <= 0 {
		t.Fatal("sketch edge label bits")
	}
}

func TestQueryWithExplicitLabels(t *testing.T) {
	// The decoder sees only labels; exercise the explicit-label API.
	g := Cycle(10)
	labels, err := BuildConnectivityLabels(g, ConnOptions{MaxFaults: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	e1, _ := g.FindEdge(0, 1)
	e2, _ := g.FindEdge(5, 6)
	fl := []EdgeLabel{labels.EdgeLabel(e1), labels.EdgeLabel(e2)}
	got, err := labels.Query(labels.VertexLabel(1), labels.VertexLabel(5), fl)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("1 and 5 remain connected on the arc")
	}
	// Removing (0,1) and (5,6) leaves arcs {1..5} and {6..9,0}.
	got, err = labels.Query(labels.VertexLabel(0), labels.VertexLabel(5), fl)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("0 and 5 are separated")
	}
}

func TestDistanceLabelsFacade(t *testing.T) {
	g := WithRandomWeights(RandomConnected(30, 45, 2), 4, 3)
	d, err := BuildDistanceLabels(g, 2, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.NewSplitMix64(13)
	for q := 0; q < 25; q++ {
		faults := RandomFaults(g, rng.Intn(3), uint64(q))
		s, dst := int32(rng.Intn(30)), int32(rng.Intn(30))
		est, err := d.Estimate(s, dst, faults)
		if err != nil {
			t.Fatal(err)
		}
		truth := Distance(g, s, dst, NewEdgeSet(faults...))
		if truth == Inf {
			if est != Unreachable {
				t.Fatalf("q %d: estimate %d for disconnected pair", q, est)
			}
			continue
		}
		if est < truth || est > d.StretchBound(len(faults))*truth {
			t.Fatalf("q %d: estimate %d outside [%d, %d]", q, est, truth, d.StretchBound(len(faults))*truth)
		}
	}
	if d.VertexLabelBits(0) <= 0 || d.EdgeLabelBits(0) <= 0 {
		t.Fatal("bit accounting")
	}
}

func TestRouterFacade(t *testing.T) {
	g := RandomConnected(35, 55, 8)
	r, err := NewRouter(g, 2, 2, RouterOptions{Seed: 17, Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.NewSplitMix64(19)
	for q := 0; q < 20; q++ {
		faultIDs := RandomFaults(g, rng.Intn(3), uint64(q)*5)
		faults := NewEdgeSet(faultIDs...)
		s, dst := int32(rng.Intn(35)), int32(rng.Intn(35))
		res, err := r.Route(s, dst, faults)
		if err != nil {
			t.Fatal(err)
		}
		connected := Distance(g, s, dst, faults) != Inf
		if res.Reached != connected {
			t.Fatalf("q %d: reached %v connected %v", q, res.Reached, connected)
		}
		if connected && res.Cost > r.StretchBoundFT(len(faultIDs))*res.Opt {
			t.Fatalf("q %d: stretch bound violated", q)
		}
		fres, err := r.RouteForbidden(s, dst, faultIDs)
		if err != nil {
			t.Fatal(err)
		}
		if fres.Reached != connected {
			t.Fatalf("q %d: forbidden reached %v connected %v", q, fres.Reached, connected)
		}
		if connected && fres.Cost > r.StretchBoundForbidden(len(faultIDs))*fres.Opt {
			t.Fatalf("q %d: forbidden stretch bound violated", q)
		}
	}
	if r.MaxTableBits() <= 0 || r.TotalTableBits() <= 0 || r.LabelBits(0) <= 0 {
		t.Fatal("accounting")
	}
}

func TestFacadeErrors(t *testing.T) {
	g := Path(4)
	if _, err := BuildConnectivityLabels(g, ConnOptions{Scheme: 99}); err == nil {
		t.Fatal("bad scheme accepted")
	}
	if _, err := BuildConnectivityLabels(g, ConnOptions{MaxFaults: -1}); err == nil {
		t.Fatal("negative f accepted")
	}
	if _, err := BuildDistanceLabels(g, 1, 0, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewRouter(g, -1, 2, RouterOptions{}); err == nil {
		t.Fatal("negative f accepted")
	}
}

// TestFacadeRangeChecks proves the single-pair facade methods reject
// out-of-range vertices and fault ids with the batch API's typed codes
// instead of panicking or answering, and enforce no fault bound.
func TestFacadeRangeChecks(t *testing.T) {
	g := RandomConnected(30, 40, 5)
	conn, err := BuildConnectivityLabels(g, ConnOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := BuildDistanceLabels(g, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewRouter(g, 1, 2, RouterOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	methods := map[string]func(s, t int32, faults []EdgeID) error{
		"Connected": func(s, t int32, f []EdgeID) error { _, err := conn.Connected(s, t, f); return err },
		"Estimate":  func(s, t int32, f []EdgeID) error { _, err := dist.Estimate(s, t, f); return err },
		"Route": func(s, t int32, f []EdgeID) error {
			_, err := router.Route(s, t, NewEdgeSet(f...))
			return err
		},
		"RouteForbidden": func(s, t int32, f []EdgeID) error { _, err := router.RouteForbidden(s, t, f); return err },
	}
	cases := []struct {
		s, t   int32
		faults []EdgeID
		want   ErrorCode
	}{
		{0, 99, nil, CodeVertexRange},
		{-1, 3, nil, CodeVertexRange},
		{0, 3, []EdgeID{9999}, CodeFaultRange},
		{0, 3, []EdgeID{1, -2}, CodeFaultRange},
		{0, 99, []EdgeID{9999}, CodeFaultRange}, // faults first, as in the batch path
		{0, 3, nil, ""},
		{0, 3, []EdgeID{1, 2, 3}, ""}, // beyond f=1: the facade enforces no bound
	}
	for name, call := range methods {
		for _, c := range cases {
			if got := CodeOf(call(c.s, c.t, c.faults)); got != c.want {
				t.Errorf("%s(%d, %d, %v): code %q, want %q", name, c.s, c.t, c.faults, got, c.want)
			}
		}
	}
}

func TestDefaultSchemeIsSketchBased(t *testing.T) {
	g := Path(5)
	labels, err := BuildConnectivityLabels(g, ConnOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := labels.Connected(0, 4, nil)
	if err != nil || !got {
		t.Fatalf("default scheme query failed: %v %v", got, err)
	}
	_ = graph.EdgeID(0) // retain internal import for type identity checks
}
