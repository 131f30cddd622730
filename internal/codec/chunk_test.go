package codec

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"ftrouting/internal/graph"
)

// chunkSizes straddles the bulk-read chunk boundaries.
var chunkSizes = []int{0, 1, readChunk - 1, readChunk, readChunk + 1, 2*readChunk + 3}

func encoded(t *testing.T, enc func(*Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	enc(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestBulkReadsRoundTripAtChunkBoundaries(t *testing.T) {
	for _, n := range chunkSizes {
		i32s := make([]int32, n)
		u64s := make([]uint64, n)
		for i := range i32s {
			i32s[i] = int32(i*7919) - 5
			u64s[i] = uint64(i) * 0x9E3779B97F4A7C15
		}
		data := encoded(t, func(w *Writer) {
			w.I32s(i32s)
			w.U64s(u64s)
			w.U32(0xFEEDFACE)
		})
		r := NewReader(bytes.NewReader(data))
		gotI, gotU := r.I32s(MaxElems), r.U64s(MaxElems)
		if !slices.Equal(gotI, i32s) || !slices.Equal(gotU, u64s) {
			t.Fatalf("n=%d: bulk values differ after round trip", n)
		}
		if cap(gotI) != n || cap(gotU) != n {
			t.Fatalf("n=%d: decoded capacities %d, %d", n, cap(gotI), cap(gotU))
		}
		if tail := r.U32(); r.Err() != nil || tail != 0xFEEDFACE {
			t.Fatalf("n=%d: stream misaligned after bulk reads: %x %v", n, tail, r.Err())
		}
	}
}

func TestGraphAndTreeRoundTripAtChunkBoundaries(t *testing.T) {
	for _, n := range chunkSizes {
		// A weighted path on n+1 vertices has n edges.
		g := graph.WithRandomWeights(graph.Path(n+1), 9, uint64(n))
		back, err := DecodeGraph(NewReader(bytes.NewReader(encoded(t, func(w *Writer) { EncodeGraph(w, g) }))))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if back.M() != n || !slices.Equal(back.Edges(), g.Edges()) {
			t.Fatalf("n=%d: graph edges differ after round trip", n)
		}
		for u := int32(0); int(u) < g.N(); u++ {
			if !slices.Equal(back.Adj(u), g.Adj(u)) {
				t.Fatalf("n=%d: adjacency of %d differs after round trip", n, u)
			}
		}

		// A tree of n vertices (the empty tree at n = 0).
		tg := graph.New(0)
		tree, err := graph.NewTreeFromParts(tg, -1, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n > 0 {
			tg = graph.RandomConnected(n, n/3, uint64(n))
			tree = graph.BFSTree(tg, int32(n/2), nil)
		}
		bt, err := DecodeTree(NewReader(bytes.NewReader(encoded(t, func(w *Writer) { EncodeTree(w, tree) }))), tg)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if bt.Size() != n || bt.Root != tree.Root || !slices.Equal(bt.Order, tree.Order) ||
			!slices.Equal(bt.Parent, tree.Parent) || !slices.Equal(bt.ParentEdge, tree.ParentEdge) {
			t.Fatalf("n=%d: tree differs after round trip", n)
		}
	}
}

func TestBulkReadTruncatedInSecondChunk(t *testing.T) {
	n := readChunk + 10
	g := graph.RandomConnected(n, 600, 3)
	cases := map[string]struct {
		data []byte
		read func(*Reader) error
	}{
		"i32s": {
			encoded(t, func(w *Writer) { w.I32s(make([]int32, n)) }),
			func(r *Reader) error { r.I32s(MaxElems); return r.Err() },
		},
		"u64s": {
			encoded(t, func(w *Writer) { w.U64s(make([]uint64, n)) }),
			func(r *Reader) error { r.U64s(MaxElems); return r.Err() },
		},
		"graph": {
			encoded(t, func(w *Writer) { EncodeGraph(w, g) }),
			func(r *Reader) error { _, err := DecodeGraph(r); return err },
		},
		"tree": {
			encoded(t, func(w *Writer) { EncodeTree(w, graph.BFSTree(g, 0, nil)) }),
			func(r *Reader) error { _, err := DecodeTree(r, g); return err },
		},
	}
	for name, c := range cases {
		// Cut a few bytes short: the first chunk reads whole, the last
		// one runs out.
		r := NewReader(bytes.NewReader(c.data[:len(c.data)-5]))
		if err := c.read(r); !errors.Is(err, ErrTruncated) {
			t.Fatalf("%s: truncated in its last chunk: %v", name, err)
		}
	}
}

// TestLyingCountAllocatesOneChunk declares MaxElems records but supplies
// one chunk and a little more: a bulk read must fail by truncation
// having allocated about one chunk (its read buffer plus the first chunk
// of output), not a buffer sized by the count.
func TestLyingCountAllocatesOneChunk(t *testing.T) {
	edges := func(w *Writer) {
		w.U32(2)
		w.U32(MaxElems)
		for i := 0; i < readChunk+3; i++ {
			w.I32(0)
			w.I32(1)
			w.I64(1)
		}
	}
	for name, c := range map[string]struct {
		enc     func(*Writer)
		outSize int // decoded bytes per record
		read    func(*Reader) error
	}{
		"i32s": {
			func(w *Writer) { w.U32(MaxElems); w.Raw(make([]byte, (readChunk+3)*4)) }, 4,
			func(r *Reader) error { r.I32s(MaxElems); return r.Err() },
		},
		"u64s": {
			func(w *Writer) { w.U32(MaxElems); w.Raw(make([]byte, (readChunk+3)*8)) }, 8,
			func(r *Reader) error { r.U64s(MaxElems); return r.Err() },
		},
		"graph-edges": {
			edges, int(unsafe.Sizeof(graph.Edge{})),
			func(r *Reader) error { _, err := DecodeGraph(r); return err },
		},
	} {
		r := NewReader(bytes.NewReader(encoded(t, c.enc)))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.read(r)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("%s: lying count: %v", name, err)
		}
		// One chunk of read buffer and one of output, plus slack for the
		// error value and race-detector bookkeeping. The parent's up-front
		// 64Ki-element allocation was 256 KiB for I32s alone.
		bound := uint64(readChunk*(maxRecord+c.outSize) + 16<<10)
		got := after.TotalAlloc - before.TotalAlloc
		if got > bound {
			t.Fatalf("%s: lying count allocated %d bytes, bound %d", name, got, bound)
		}
		t.Logf("%s: lying count allocated %d bytes, bound %d", name, got, bound)
	}
}
