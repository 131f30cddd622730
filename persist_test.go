package ftrouting

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"testing"

	"ftrouting/internal/codec"
)

// connTopologies is the generator matrix for connectivity round trips:
// every public generator family, plus weighted and disconnected inputs.
func connTopologies() map[string]*Graph {
	two := NewGraph(13) // two components + an isolated vertex
	for i := int32(0); i < 5; i++ {
		for j := i + 1; j < 6; j++ {
			two.MustAddEdge(i, j, 1)
		}
	}
	for i := int32(6); i < 11; i++ {
		two.MustAddEdge(i, i+1, 2)
	}
	two.MustAddEdge(6, 11, 3)
	return map[string]*Graph{
		"path":     Path(17),
		"cycle":    Cycle(12),
		"grid":     Grid(4, 5),
		"hyper":    Hypercube(3),
		"star":     Star(9),
		"tree":     RandomTree(25, 7),
		"random":   RandomConnected(40, 60, 3),
		"cliques":  RingOfCliques(4, 4),
		"wheel":    Wheel(10),
		"torus":    Torus(4, 4),
		"weighted": WithRandomWeights(RandomConnected(24, 36, 5), 9, 11),
		"disconn":  two,
		"islands":  Islands(5, 12, 8, 3),
	}
}

// distTopologies is the smaller matrix used where preprocessing builds a
// full tree-cover hierarchy.
func distTopologies() map[string]*Graph {
	return map[string]*Graph{
		"path":     Path(10),
		"cycle":    Cycle(9),
		"grid":     Grid(3, 4),
		"star":     Star(8),
		"random":   RandomConnected(18, 27, 3),
		"weighted": WithRandomWeights(RandomConnected(16, 24, 5), 8, 11),
	}
}

// queryPairs yields a deterministic spread of (s,t) pairs.
func queryPairs(n int) [][2]int32 {
	var out [][2]int32
	for i := 0; i < n && i < 8; i++ {
		s := int32((i * 5) % n)
		t := int32((i*11 + n/2) % n)
		out = append(out, [2]int32{s, t})
	}
	return out
}

func TestConnLabelsRoundTrip(t *testing.T) {
	for name, g := range connTopologies() {
		for _, scheme := range []ConnSchemeKind{CutBased, SketchBased} {
			t.Run(fmt.Sprintf("%s/scheme%d", name, scheme), func(t *testing.T) {
				built, err := BuildConnectivityLabels(g, ConnOptions{Scheme: scheme, MaxFaults: 3, Seed: 42})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := SaveConnLabels(&buf, built); err != nil {
					t.Fatal(err)
				}
				loaded, err := LoadConnLabels(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				// Labels must be bit-identical...
				for v := int32(0); v < int32(g.N()); v++ {
					if b, l := built.VertexLabel(v).Bits(), loaded.VertexLabel(v).Bits(); b != l {
						t.Fatalf("vertex %d label bits %d != %d", v, b, l)
					}
				}
				for e := EdgeID(0); int(e) < g.M(); e++ {
					if b, l := built.EdgeLabel(e).Bits(), loaded.EdgeLabel(e).Bits(); b != l {
						t.Fatalf("edge %d label bits %d != %d", e, b, l)
					}
				}
				// ...and answer every query identically.
				for qi, pq := range queryPairs(g.N()) {
					for nf := 0; nf <= 3 && nf*3 < g.M(); nf++ {
						faults := RandomFaults(g, nf, uint64(qi*7+nf))
						want, err := built.Connected(pq[0], pq[1], faults)
						if err != nil {
							t.Fatal(err)
						}
						got, err := loaded.Connected(pq[0], pq[1], faults)
						if err != nil {
							t.Fatal(err)
						}
						if want != got {
							t.Fatalf("query (%d,%d) faults %v: built %v, loaded %v", pq[0], pq[1], faults, want, got)
						}
					}
				}
			})
		}
	}
}

func TestDistLabelsRoundTrip(t *testing.T) {
	for name, g := range distTopologies() {
		t.Run(name, func(t *testing.T) {
			built, err := BuildDistanceLabels(g, 2, 2, 42)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := SaveDistLabels(&buf, built); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadDistLabels(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			for v := int32(0); v < int32(g.N()); v++ {
				if b, l := built.VertexLabelBits(v), loaded.VertexLabelBits(v); b != l {
					t.Fatalf("vertex %d label bits %d != %d", v, b, l)
				}
			}
			for qi, pq := range queryPairs(g.N()) {
				for nf := 0; nf <= 2 && nf*3 < g.M(); nf++ {
					faults := RandomFaults(g, nf, uint64(qi*13+nf))
					want, err := built.Estimate(pq[0], pq[1], faults)
					if err != nil {
						t.Fatal(err)
					}
					got, err := loaded.Estimate(pq[0], pq[1], faults)
					if err != nil {
						t.Fatal(err)
					}
					if want != got {
						t.Fatalf("estimate (%d,%d) faults %v: built %d, loaded %d", pq[0], pq[1], faults, want, got)
					}
				}
			}
		})
	}
}

func TestRouterRoundTrip(t *testing.T) {
	for name, g := range distTopologies() {
		for _, balanced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/balanced=%v", name, balanced), func(t *testing.T) {
				built, err := NewRouter(g, 2, 2, RouterOptions{Seed: 42, Balanced: balanced})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := SaveRouter(&buf, built); err != nil {
					t.Fatal(err)
				}
				loaded, err := LoadRouter(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				if b, l := built.TotalTableBits(), loaded.TotalTableBits(); b != l {
					t.Fatalf("total table bits %d != %d", b, l)
				}
				for qi, pq := range queryPairs(g.N()) {
					faults := RandomFaults(g, qi%3, uint64(qi*3+1))
					want, err := built.Route(pq[0], pq[1], NewEdgeSet(faults...))
					if err != nil {
						t.Fatal(err)
					}
					got, err := loaded.Route(pq[0], pq[1], NewEdgeSet(faults...))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("route (%d,%d) faults %v:\nbuilt  %+v\nloaded %+v", pq[0], pq[1], faults, want, got)
					}
					wantF, err := built.RouteForbidden(pq[0], pq[1], faults)
					if err != nil {
						t.Fatal(err)
					}
					gotF, err := loaded.RouteForbidden(pq[0], pq[1], faults)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(wantF, gotF) {
						t.Fatalf("forbidden route (%d,%d): built %+v, loaded %+v", pq[0], pq[1], wantF, gotF)
					}
				}
			})
		}
	}
}

func TestLoadSchemeDispatch(t *testing.T) {
	g := Grid(3, 3)
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
	var connBuf, distBuf, routeBuf bytes.Buffer
	if err := SaveConnLabels(&connBuf, conn); err != nil {
		t.Fatal(err)
	}
	if err := SaveDistLabels(&distBuf, dist); err != nil {
		t.Fatal(err)
	}
	if err := SaveRouter(&routeBuf, router); err != nil {
		t.Fatal(err)
	}
	if v, err := LoadScheme(bytes.NewReader(connBuf.Bytes())); err != nil {
		t.Fatal(err)
	} else if _, ok := v.(*ConnLabels); !ok {
		t.Fatalf("conn file loaded as %T", v)
	}
	if v, err := LoadScheme(bytes.NewReader(distBuf.Bytes())); err != nil {
		t.Fatal(err)
	} else if _, ok := v.(*DistLabels); !ok {
		t.Fatalf("dist file loaded as %T", v)
	}
	if v, err := LoadScheme(bytes.NewReader(routeBuf.Bytes())); err != nil {
		t.Fatal(err)
	} else if _, ok := v.(*Router); !ok {
		t.Fatalf("router file loaded as %T", v)
	}
	// Kind mismatch is a typed error.
	if _, err := LoadConnLabels(bytes.NewReader(distBuf.Bytes())); !errors.Is(err, ErrKind) {
		t.Fatalf("conn loader on dist file: %v", err)
	}
	if _, err := LoadRouter(bytes.NewReader(connBuf.Bytes())); !errors.Is(err, ErrKind) {
		t.Fatalf("router loader on conn file: %v", err)
	}
}

// validSchemeFiles returns one small valid file per scheme kind.
func validSchemeFiles(t *testing.T) map[string][]byte {
	t.Helper()
	g := Path(8)
	conn, err := BuildConnectivityLabels(g, ConnOptions{Scheme: CutBased, MaxFaults: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := BuildDistanceLabels(g, 1, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewRouter(g, 1, 2, RouterOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var cb, db, rb bytes.Buffer
	if err := SaveConnLabels(&cb, conn); err != nil {
		t.Fatal(err)
	}
	if err := SaveDistLabels(&db, dist); err != nil {
		t.Fatal(err)
	}
	if err := SaveRouter(&rb, router); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"conn": cb.Bytes(), "dist": db.Bytes(), "route": rb.Bytes()}
}

func TestLoadRejectsTruncation(t *testing.T) {
	for name, data := range validSchemeFiles(t) {
		t.Run(name, func(t *testing.T) {
			for cut := 0; cut < len(data); cut++ {
				_, err := LoadScheme(bytes.NewReader(data[:cut]))
				if err == nil {
					t.Fatalf("accepted file truncated to %d of %d bytes", cut, len(data))
				}
				if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) &&
					!errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrChecksum) {
					t.Fatalf("truncated to %d bytes: untyped error %v", cut, err)
				}
			}
		})
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	// Flipping any byte of a valid file must fail: the CRC32 trailer
	// covers header and payload, and flips that derail decoding earlier
	// must yield a typed error rather than a panic or silent success.
	for name, data := range validSchemeFiles(t) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < len(data); i++ {
				bad := append([]byte(nil), data...)
				bad[i] ^= 0xFF
				if _, err := LoadScheme(bytes.NewReader(bad)); err == nil {
					t.Fatalf("accepted file with byte %d flipped", i)
				}
			}
		})
	}
}

func TestLoadRejectsBadMagicAndVersion(t *testing.T) {
	data := validSchemeFiles(t)["conn"]
	bad := append([]byte(nil), data...)
	copy(bad, "NOPE")
	if _, err := LoadConnLabels(bytes.NewReader(bad)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}
	future := append([]byte(nil), data...)
	future[4], future[5] = 0xFF, 0x7F // version 32767
	if _, err := LoadConnLabels(bytes.NewReader(future)); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: %v", err)
	}
	if _, err := LoadConnLabels(bytes.NewReader(nil)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty input: %v", err)
	}
}

// TestSavedFileStable pins the on-disk representation: saving the same
// scheme twice yields identical bytes, and loading then re-saving is a
// fixed point. This is what makes label-size accounting on files
// meaningful across runs and PRs.
func TestSavedFileStable(t *testing.T) {
	g := RandomConnected(20, 30, 9)
	built, err := BuildConnectivityLabels(g, ConnOptions{Seed: 3, MaxFaults: 2})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := SaveConnLabels(&a, built); err != nil {
		t.Fatal(err)
	}
	if err := SaveConnLabels(&b, built); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of one scheme differ")
	}
	loaded, err := LoadConnLabels(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := SaveConnLabels(&c, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("save-load-save is not a fixed point")
	}
}

// TestHeaderLayout pins the documented header bytes.
func TestHeaderLayout(t *testing.T) {
	data := validSchemeFiles(t)["conn"]
	if string(data[:4]) != codec.Magic {
		t.Fatalf("magic %q", data[:4])
	}
	if v := uint16(data[4]) | uint16(data[5])<<8; v != codec.Version {
		t.Fatalf("version %d", v)
	}
	if k := codec.Kind(uint16(data[6]) | uint16(data[7])<<8); k != codec.KindConnLabels {
		t.Fatalf("kind %d", k)
	}
}

// TestLoadRejectsPermutedSections pins that a connectivity file's
// component sections must follow the component directory the graph
// determines. A file listing them in reverse order is internally
// consistent (every vertex in exactly one section, every tree spanning),
// but its sharded split would carry a directory no manifest reader
// accepts, so the loader must reject it as corrupt.
func TestLoadRejectsPermutedSections(t *testing.T) {
	built, err := BuildConnectivityLabels(shardDisconn(), ConnOptions{Scheme: CutBased, MaxFaults: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// encode writes the conn file format by hand, with the component
	// sections in the given order.
	encode := func(order []int) []byte {
		var buf bytes.Buffer
		cw := codec.NewWriter(&buf)
		codec.WriteHeader(cw, codec.KindConnLabels)
		cw.U16(uint16(CutBased))
		cw.I32(2)
		cw.U64(7)
		codec.EncodeGraph(cw, built.g)
		cw.Count(len(order))
		for _, ci := range order {
			codec.EncodeSubgraph(cw, built.subs[ci])
			codec.EncodeTree(cw, built.schemes[ci].Tree())
		}
		if err := cw.Finish(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ncomp := len(built.subs)
	if ncomp < 3 {
		t.Fatalf("fixture needs several components, has %d", ncomp)
	}
	forward, reverse := make([]int, ncomp), make([]int, ncomp)
	for i := range forward {
		forward[i], reverse[i] = i, ncomp-1-i
	}
	var saved bytes.Buffer
	if err := SaveConnLabels(&saved, built); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(forward), saved.Bytes()) {
		t.Fatal("hand encoding in directory order differs from SaveConnLabels")
	}
	if _, err := LoadConnLabels(bytes.NewReader(encode(reverse))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("reverse-order sections: %v, want ErrCorrupt", err)
	}
}

// countingWriter counts the Write calls and bytes reaching it.
type countingWriter struct {
	w            io.Writer
	calls, bytes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.calls++
	c.bytes += len(p)
	return c.w.Write(p)
}

// checkBuffered fails unless the writes arrived in buffer-sized chunks:
// at most one call per 4 KiB (bufio's default size) plus a final flush,
// never one call per encoded field.
func checkBuffered(t *testing.T, what string, c *countingWriter) {
	t.Helper()
	if max := 1 + c.bytes/4096; c.calls > max {
		t.Fatalf("%s: %d bytes took %d Write calls, want at most %d", what, c.bytes, c.calls, max)
	}
}

// TestSaveWritesBuffered proves every artifact writer buffers: a scheme
// file and each manifest and shard file reach their io.Writer in a few
// large writes, not one per field.
func TestSaveWritesBuffered(t *testing.T) {
	d, err := BuildDistanceLabels(RandomConnected(40, 60, 3), 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := &countingWriter{w: io.Discard}
	if err := SaveDistLabels(w, d); err != nil {
		t.Fatal(err)
	}
	checkBuffered(t, "SaveDistLabels", w)

	conn, err := BuildConnectivityLabels(shardDisconn(), ConnOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]*countingWriter{}
	defer func(orig func(string) (io.WriteCloser, error)) { createFile = orig }(createFile)
	createFile = func(path string) (io.WriteCloser, error) {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		files[path] = &countingWriter{w: f}
		return struct {
			io.Writer
			io.Closer
		}{files[path], f}, nil
	}
	m, err := SaveShardedConn(t.TempDir(), conn, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != m.NumShards()+1 {
		t.Fatalf("%d files created, want %d shards + manifest", len(files), m.NumShards())
	}
	for path, c := range files {
		checkBuffered(t, path, c)
	}
}
