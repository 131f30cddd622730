package codec

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"ftrouting/internal/graph"
	"ftrouting/internal/treecover"
)

func TestWirePrimitivesRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U8(0xAB)
	w.Bool(true)
	w.Bool(false)
	w.U16(0xBEEF)
	w.U32(0xDEADBEEF)
	w.U64(0x0123456789ABCDEF)
	w.I32(-7)
	w.I64(-1 << 40)
	w.I32s([]int32{3, -1, 5})
	w.U64s([]uint64{9, 10})
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	if got := r.U8(); got != 0xAB {
		t.Fatalf("U8 %x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool")
	}
	if got := r.U16(); got != 0xBEEF {
		t.Fatalf("U16 %x", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Fatalf("U32 %x", got)
	}
	if got := r.U64(); got != 0x0123456789ABCDEF {
		t.Fatalf("U64 %x", got)
	}
	if got := r.I32(); got != -7 {
		t.Fatalf("I32 %d", got)
	}
	if got := r.I64(); got != -1<<40 {
		t.Fatalf("I64 %d", got)
	}
	if got := r.I32s(10); !reflect.DeepEqual(got, []int32{3, -1, 5}) {
		t.Fatalf("I32s %v", got)
	}
	if got := r.U64s(10); !reflect.DeepEqual(got, []uint64{9, 10}) {
		t.Fatalf("U64s %v", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderTypedFailures(t *testing.T) {
	// Truncation.
	r := NewReader(bytes.NewReader([]byte{1, 2}))
	r.U32()
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("truncated U32: %v", r.Err())
	}
	// Non-boolean byte.
	r = NewReader(bytes.NewReader([]byte{2}))
	r.Bool()
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("bool byte 2: %v", r.Err())
	}
	// Count beyond bound.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U32(1000)
	_ = w.Err()
	r = NewReader(bytes.NewReader(buf.Bytes()))
	r.Count(10)
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("oversized count: %v", r.Err())
	}
	// Lying count larger than the input fails by truncation, without a
	// matching allocation.
	buf.Reset()
	w = NewWriter(&buf)
	w.U32(1 << 27)
	_ = w.Err()
	r = NewReader(bytes.NewReader(buf.Bytes()))
	r.U64s(MaxElems)
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("lying count: %v", r.Err())
	}
	// Checksum mismatch.
	buf.Reset()
	w = NewWriter(&buf)
	w.U64(42)
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[3] ^= 1
	r = NewReader(bytes.NewReader(data))
	r.U64()
	if err := r.Finish(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("flipped payload byte: %v", err)
	}
}

func TestHeaderRoundTripAndRejection(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	WriteHeader(w, KindRouter)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if err := ReadHeader(NewReader(bytes.NewReader(buf.Bytes())), KindRouter); err != nil {
		t.Fatal(err)
	}
	if err := ReadHeader(NewReader(bytes.NewReader(buf.Bytes())), KindDistLabels); !errors.Is(err, ErrKind) {
		t.Fatalf("kind mismatch: %v", err)
	}
	kind, err := ReadHeaderAny(NewReader(bytes.NewReader(buf.Bytes())))
	if err != nil || kind != KindRouter {
		t.Fatalf("ReadHeaderAny: %v %v", kind, err)
	}
	// Byte-slice variant agrees with the stream variant.
	b := AppendHeader(nil, KindRouter)
	if !bytes.Equal(b, buf.Bytes()) {
		t.Fatal("AppendHeader and WriteHeader disagree")
	}
	if _, err := ConsumeHeader(b, KindRouter); err != nil {
		t.Fatal(err)
	}
	if _, err := ConsumeHeader(b, KindConnLabels); !errors.Is(err, ErrKind) {
		t.Fatalf("ConsumeHeader kind mismatch: %v", err)
	}
	if _, err := ConsumeHeader(b[:5], KindRouter); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short header: %v", err)
	}
	bad := append([]byte(nil), b...)
	copy(bad, "XXXX")
	if _, err := ConsumeHeader(bad, KindRouter); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}
	future := append([]byte(nil), b...)
	future[5] = 0x7F
	if _, err := ConsumeHeader(future, KindRouter); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: %v", err)
	}
}

// encodeDecode runs an encode func into a buffer and hands the bytes to a
// decode func.
func encodeDecode(t *testing.T, enc func(*Writer), dec func(*Reader) error) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	enc(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	if err := dec(r); err != nil {
		t.Fatal(err)
	}
}

func TestGraphRoundTrip(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.New(0),
		graph.New(5), // isolated vertices, no edges
		graph.Cycle(9),
		graph.WithRandomWeights(graph.RandomConnected(30, 50, 3), 9, 4),
	} {
		encodeDecode(t, func(w *Writer) { EncodeGraph(w, g) }, func(r *Reader) error {
			back, err := DecodeGraph(r)
			if err != nil {
				return err
			}
			if back.N() != g.N() || back.M() != g.M() {
				t.Fatalf("size mismatch: %d/%d vs %d/%d", back.N(), back.M(), g.N(), g.M())
			}
			if !reflect.DeepEqual(back.Edges(), g.Edges()) {
				t.Fatal("edge records differ (ports must be reproduced)")
			}
			return back.Validate()
		})
	}
}

func TestGraphDecodeRejectsUnsubstantiatedVertexCount(t *testing.T) {
	// n drives an up-front adjacency allocation that no payload bytes
	// back, so it has its own tight cap (found by FuzzDecodeGraph: a
	// 70-byte input claiming 2^27 vertices forced a multi-GB make).
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U32(MaxGraphVertices + 1)
	w.U32(0)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeGraph(NewReader(bytes.NewReader(buf.Bytes()))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized vertex count: %v", err)
	}
}

func TestGraphDecodeRejectsBadEdges(t *testing.T) {
	for name, enc := range map[string]func(w *Writer){
		"endpoint-range": func(w *Writer) { w.Count(2); w.Count(1); w.I32(0); w.I32(7); w.I64(1) },
		"self-loop":      func(w *Writer) { w.Count(2); w.Count(1); w.I32(1); w.I32(1); w.I64(1) },
		"zero-weight":    func(w *Writer) { w.Count(2); w.Count(1); w.I32(0); w.I32(1); w.I64(0) },
	} {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		enc(w)
		if _, err := DecodeGraph(NewReader(bytes.NewReader(buf.Bytes()))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestTreeRoundTrip(t *testing.T) {
	g := graph.WithRandomWeights(graph.RandomConnected(25, 40, 7), 5, 2)
	for _, tree := range []*graph.Tree{
		graph.BFSTree(g, 0, nil),
		graph.BFSTree(g, 13, nil),
		graph.ShortestPathTree(g, 4, nil),
	} {
		encodeDecode(t, func(w *Writer) { EncodeTree(w, tree) }, func(r *Reader) error {
			back, err := DecodeTree(r, g)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(back.Parent, tree.Parent) || !reflect.DeepEqual(back.Order, tree.Order) ||
				!reflect.DeepEqual(back.Children, tree.Children) || !reflect.DeepEqual(back.Depth, tree.Depth) ||
				!reflect.DeepEqual(back.InTree, tree.InTree) || back.Root != tree.Root {
				t.Fatal("tree structure differs after round trip")
			}
			return nil
		})
	}
}

func TestTreeDecodeRejectsStructuralNonsense(t *testing.T) {
	g := graph.Path(4) // edges 0-1, 1-2, 2-3
	cases := map[string]func(w *Writer){
		"root-out-of-range": func(w *Writer) {
			w.I32(9)
			w.Count(1)
			w.I32(9)
			w.I32(-1)
			w.I32(-1)
		},
		"order-not-starting-at-root": func(w *Writer) {
			w.I32(0)
			w.Count(1)
			w.I32(1)
			w.I32(-1)
			w.I32(-1)
		},
		"child-before-parent": func(w *Writer) {
			w.I32(0)
			w.Count(3)
			w.I32(0)
			w.I32(-1)
			w.I32(-1)
			w.I32(2) // parent 1 not yet seen
			w.I32(1)
			w.I32(1)
			w.I32(1)
			w.I32(0)
			w.I32(0)
		},
		"edge-joins-wrong-vertices": func(w *Writer) {
			w.I32(0)
			w.Count(2)
			w.I32(0)
			w.I32(-1)
			w.I32(-1)
			w.I32(1)
			w.I32(0)
			w.I32(2) // edge 2 joins 2-3, not 0-1
		},
		"duplicate-vertex": func(w *Writer) {
			w.I32(0)
			w.Count(2)
			w.I32(0)
			w.I32(-1)
			w.I32(-1)
			w.I32(0)
			w.I32(-1)
			w.I32(-1)
		},
	}
	for name, enc := range cases {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		enc(w)
		if _, err := DecodeTree(NewReader(bytes.NewReader(buf.Bytes())), g); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestSubgraphRoundTrip(t *testing.T) {
	g := graph.WithRandomWeights(graph.RandomConnected(20, 35, 5), 7, 3)
	sub, err := graph.Induced(g, []int32{1, 3, 4, 8, 9, 12, 17}, 5)
	if err != nil {
		t.Fatal(err)
	}
	encodeDecode(t, func(w *Writer) { EncodeSubgraph(w, sub) }, func(r *Reader) error {
		back, err := DecodeSubgraph(r, g)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(back.ToGlobal, sub.ToGlobal) || !reflect.DeepEqual(back.EdgeToGlobal, sub.EdgeToGlobal) {
			t.Fatal("subgraph columns differ after round trip")
		}
		// Equal columns, each inverted exactly by its lookups: the
		// lookups of both sides agree on every id.
		checkSubgraphInverse(t, g, sub)
		checkSubgraphInverse(t, g, back)
		if !reflect.DeepEqual(back.Local.Edges(), sub.Local.Edges()) {
			t.Fatal("local graphs differ after round trip (weights and ports must match)")
		}
		return nil
	})
}

// checkSubgraphInverse requires LocalVertex and LocalEdge to invert the
// ToGlobal and EdgeToGlobal columns and to report every other id of g as
// absent.
func checkSubgraphInverse(t *testing.T, g *graph.Graph, s *graph.Subgraph) {
	t.Helper()
	for lv, gv := range s.ToGlobal {
		if got, ok := s.LocalVertex(gv); !ok || got != int32(lv) {
			t.Fatalf("LocalVertex(%d) = %d,%v, want %d", gv, got, ok, lv)
		}
	}
	for le, ge := range s.EdgeToGlobal {
		if got, ok := s.LocalEdge(ge); !ok || got != graph.EdgeID(le) {
			t.Fatalf("LocalEdge(%d) = %d,%v, want %d", ge, got, ok, le)
		}
	}
	vs, es := 0, 0
	for v := int32(-1); v <= int32(g.N()); v++ {
		if s.Contains(v) {
			vs++
		}
	}
	for id := graph.EdgeID(-1); id <= graph.EdgeID(g.M()); id++ {
		if _, ok := s.LocalEdge(id); ok {
			es++
		}
	}
	if vs != len(s.ToGlobal) || es != len(s.EdgeToGlobal) {
		t.Fatalf("lookups find %d vertices and %d edges, subgraph has %d and %d", vs, es, len(s.ToGlobal), len(s.EdgeToGlobal))
	}
}

func TestSubgraphDecodeRejectsNonsense(t *testing.T) {
	g := graph.Path(5)
	cases := map[string]func(w *Writer){
		"unsorted-vertices": func(w *Writer) { w.I32s([]int32{2, 1}); w.I32s(nil) },
		"vertex-range":      func(w *Writer) { w.I32s([]int32{0, 9}); w.I32s(nil) },
		"edge-range":        func(w *Writer) { w.I32s([]int32{0, 1}); w.I32s([]int32{99}) },
		"edge-outside":      func(w *Writer) { w.I32s([]int32{0, 1}); w.I32s([]int32{2}) },
		"unsorted-edges":    func(w *Writer) { w.I32s([]int32{0, 1, 2}); w.I32s([]int32{1, 0}) },
	}
	for name, enc := range cases {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		enc(w)
		if _, err := DecodeSubgraph(NewReader(bytes.NewReader(buf.Bytes())), g); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestHierarchyRoundTrip(t *testing.T) {
	g := graph.WithRandomWeights(graph.RandomConnected(18, 28, 9), 4, 6)
	h, err := treecover.BuildHierarchy(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	encodeDecode(t, func(w *Writer) { EncodeHierarchy(w, h) }, func(r *Reader) error {
		back, err := DecodeHierarchy(r, g)
		if err != nil {
			return err
		}
		if back.K != h.K || len(back.Scales) != len(h.Scales) {
			t.Fatalf("scale count mismatch")
		}
		for i, cover := range h.Scales {
			bc := back.Scales[i]
			if bc.Rho != cover.Rho || bc.K != cover.K || !reflect.DeepEqual(bc.Home, cover.Home) {
				t.Fatalf("scale %d cover metadata differs", i)
			}
			if len(bc.Clusters) != len(cover.Clusters) {
				t.Fatalf("scale %d cluster count differs", i)
			}
			for j, cl := range cover.Clusters {
				bcl := bc.Clusters[j]
				if bcl.Center != cl.Center || bcl.Radius != cl.Radius ||
					!reflect.DeepEqual(bcl.Sub.ToGlobal, cl.Sub.ToGlobal) ||
					!reflect.DeepEqual(bcl.Tree.Order, cl.Tree.Order) {
					t.Fatalf("scale %d cluster %d differs", i, j)
				}
			}
		}
		return nil
	})
}

func TestHierarchyDecodeRejectsBadHome(t *testing.T) {
	g := graph.Path(3)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Count(1)               // one scale
	w.I64(1)                 // rho
	w.I32(1)                 // k
	w.I32s([]int32{0, 5, 0}) // home 5 out of range
	w.Count(1)               // one cluster
	w.I32(0)                 // center
	w.I64(2)                 // radius
	w.I32s([]int32{0, 1, 2}) // cluster vertices
	w.I32s([]int32{0, 1})    // cluster edges
	w.I32(0)                 // tree root
	w.Count(3)               // tree size
	w.I32(0)                 // v=0
	w.I32(-1)                // parent
	w.I32(-1)                // parent edge
	w.I32(1)                 // v=1
	w.I32(0)                 // parent
	w.I32(0)                 // parent edge
	w.I32(2)                 // v=2
	w.I32(1)                 // parent
	w.I32(1)                 // parent edge
	if _, err := DecodeHierarchy(NewReader(bytes.NewReader(buf.Bytes())), g); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("home out of range: %v", err)
	}
}

// TestHierarchyDecodeRejectsNoScales checks a hierarchy section with no
// scale is corrupt: every build has at least one, and decoders read the
// home clusters of scale 0.
func TestHierarchyDecodeRejectsNoScales(t *testing.T) {
	var buf bytes.Buffer
	NewWriter(&buf).Count(0)
	if _, err := DecodeHierarchy(NewReader(bytes.NewReader(buf.Bytes())), graph.Path(3)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zero scales: %v", err)
	}
}
