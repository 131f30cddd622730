package codec

import (
	"bytes"
	"testing"

	"ftrouting/internal/graph"
	"ftrouting/internal/treecover"
)

// The fuzz targets assert the decoder contract: arbitrary bytes either
// decode into a structurally valid object or fail with an error — never a
// panic, never an unvalidated structure. Seeds are valid encodings so the
// fuzzer starts from deep coverage.

func seedBytes(enc func(*Writer)) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	enc(w)
	return buf.Bytes()
}

func FuzzDecodeGraph(f *testing.F) {
	f.Add(seedBytes(func(w *Writer) { EncodeGraph(w, graph.Cycle(8)) }))
	f.Add(seedBytes(func(w *Writer) { EncodeGraph(w, graph.RandomConnected(12, 20, 1)) }))
	f.Add([]byte{})
	// Regression: a tiny input claiming 2^27 vertices must be rejected
	// before the adjacency index is allocated.
	f.Add([]byte("\x00\x00\x00\x08\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeGraph(NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("decoded graph violates invariants: %v", err)
		}
	})
}

func FuzzDecodeTree(f *testing.F) {
	g := graph.RandomConnected(10, 16, 2)
	f.Add(seedBytes(func(w *Writer) { EncodeTree(w, graph.BFSTree(g, 0, nil)) }))
	f.Add(seedBytes(func(w *Writer) { EncodeTree(w, graph.ShortestPathTree(g, 3, nil)) }))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tree, err := DecodeTree(NewReader(bytes.NewReader(data)), g)
		if err != nil {
			return
		}
		// A decoded tree must be safe for the consumers that walk it.
		for _, v := range tree.Order {
			if v != tree.Root {
				if p := tree.Parent[v]; p < 0 || tree.Depth[v] != tree.Depth[p]+1 {
					t.Fatalf("decoded tree has inconsistent depth at %d", v)
				}
			}
		}
	})
}

func FuzzDecodeSubgraph(f *testing.F) {
	g := graph.RandomConnected(12, 18, 5)
	sub, _ := graph.Induced(g, []int32{0, 2, 3, 7, 9}, graph.Inf)
	f.Add(seedBytes(func(w *Writer) { EncodeSubgraph(w, sub) }))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSubgraph(NewReader(bytes.NewReader(data)), g)
		if err != nil {
			return
		}
		if err := s.Local.Validate(); err != nil {
			t.Fatalf("decoded subgraph violates invariants: %v", err)
		}
		checkSubgraphInverse(t, g, s)
	})
}

func FuzzDecodeHierarchy(f *testing.F) {
	g := graph.RandomConnected(10, 15, 4)
	h, err := treecover.BuildHierarchy(g, 2)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seedBytes(func(w *Writer) { EncodeHierarchy(w, h) }))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		back, err := DecodeHierarchy(NewReader(bytes.NewReader(data)), g)
		if err != nil {
			return
		}
		for i, cover := range back.Scales {
			for v, j := range cover.Home {
				if !cover.Clusters[j].Sub.Contains(int32(v)) {
					t.Fatalf("scale %d: vertex %d outside its home cluster", i, v)
				}
			}
			for _, cl := range cover.Clusters {
				if cl.Tree.Size() != cl.Sub.Local.N() {
					t.Fatal("cluster tree does not span its subgraph")
				}
			}
		}
	})
}
