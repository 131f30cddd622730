package main

// `ftroute shard`: split a monolithic scheme file into a manifest plus
// per-component shard files (package ftrouting's sharded persistence).
// `ftroute info`: print what a scheme, manifest or shard-manifest file
// holds without serving it.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"ftrouting"
	"ftrouting/internal/codec"
)

func runShard(args []string) error {
	fs := flag.NewFlagSet("shard", flag.ExitOnError)
	in := fs.String("in", "scheme.ftl", "monolithic scheme file written by ftroute build")
	outDir := fs.String("out-dir", "shards", "output directory (created if missing)")
	shards := fs.Int("shards", 0, "target shard count: 0 = one shard per component; smaller counts group components balanced by vertices")
	if err := fs.Parse(args); err != nil {
		return err
	}
	file, err := os.Open(*in)
	if err != nil {
		return err
	}
	scheme, err := ftrouting.LoadScheme(file)
	file.Close()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	m, err := ftrouting.SaveSharded(*outDir, scheme, ftrouting.ShardOptions{Shards: *shards})
	if err != nil {
		return err
	}
	g := m.Graph()
	fmt.Printf("sharded %s scheme: graph n=%d m=%d, %d components -> %d shards\n",
		m.Kind(), g.N(), g.M(), m.NumComponents(), m.NumShards())
	fmt.Printf("%-16s %10s %10s %8s %8s  %s\n", "file", "bytes", "checksum", "verts", "edges", "components")
	var total int64
	for _, info := range m.Shards() {
		fmt.Printf("%-16s %10d   %08x %8d %8d  %v\n",
			info.Name, info.Bytes, info.Checksum, info.Vertices, info.Edges, info.Components)
		total += info.Bytes
	}
	fmt.Printf("wrote %s + %d shard files (%d shard bytes)\n",
		filepath.Join(*outDir, ftrouting.ManifestFileName), m.NumShards(), total)
	return nil
}

func runInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: ftroute info FILE")
	}
	path := fs.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	kind, err := codec.ReadHeaderAny(codec.NewReader(f))
	if err != nil {
		return fmt.Errorf("%s: reading header: %w", path, err)
	}
	fmt.Printf("%s: magic %q, format version %d, kind %d (%s)\n",
		path, codec.Magic, codec.Version, uint16(kind), kind)
	st, err := f.Stat()
	if err != nil {
		return err
	}
	switch kind {
	case codec.KindManifest:
		return infoManifest(path, st.Size())
	case codec.KindConnLabels, codec.KindDistLabels, codec.KindRouter:
		return infoScheme(path, st.Size())
	default:
		fmt.Printf("file: %d bytes (no further structure printed for this kind)\n", st.Size())
		return nil
	}
}

// infoScheme loads a monolithic scheme file and prints its vital signs,
// including representative per-label sizes (label content is re-derived
// on load, so sizes reflect exactly what a query would marshal).
func infoScheme(path string, fileBytes int64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	scheme, err := ftrouting.LoadScheme(f)
	if err != nil {
		return err
	}
	printSchemeInfo(scheme, fileBytes, 0, 0)
	return nil
}

// schemeInfo is what every scheme kind reports about itself.
type schemeInfo interface {
	Graph() *ftrouting.Graph
	FaultBound() int
}

// printSchemeInfo prints counts, fault bound and per-label sizes of a
// loaded scheme (shared by monolithic files and a manifest's first
// shard). sampleV/sampleE pick the representative labels; a sample
// outside the graph (-1 from a shard holding none) skips it, as a partial
// shard scheme can only label its own vertices and edges.
func printSchemeInfo(scheme any, fileBytes int64, sampleV int32, sampleE ftrouting.EdgeID) {
	info := scheme.(schemeInfo)
	g := info.Graph()
	hasV := sampleV >= 0 && int(sampleV) < g.N()
	hasE := sampleE >= 0 && int(sampleE) < g.M()
	fmt.Printf("graph: n=%d m=%d\n", g.N(), g.M())
	fmt.Printf("fault bound: %s\n", boundString(info.FaultBound()))
	switch v := scheme.(type) {
	case *ftrouting.ConnLabels:
		if hasV {
			fmt.Printf("vertex label: %d bits", v.VertexLabel(sampleV).Bits())
			if hasE {
				fmt.Printf(", edge label: %d bits", v.EdgeLabel(sampleE).Bits())
			}
			fmt.Println()
		}
	case *ftrouting.DistLabels:
		if hasV {
			fmt.Printf("vertex label: %d bits", v.VertexLabelBits(sampleV))
			if hasE {
				fmt.Printf(", edge label: %d bits", v.EdgeLabelBits(sampleE))
			}
			fmt.Println()
		}
	case *ftrouting.Router:
		if hasV {
			fmt.Printf("routing label: %d bits, max table: %d bits\n", v.LabelBits(sampleV), v.MaxTableBits())
		}
	}
	if fileBytes > 0 {
		fmt.Printf("file: %d bytes\n", fileBytes)
	}
}

// infoManifest loads a manifest and prints the directory plus the shard
// table; per-label sizes come from the first shard (every shard derives
// them the same way).
func infoManifest(path string, fileBytes int64) error {
	m, err := ftrouting.LoadManifest(path)
	if err != nil {
		return err
	}
	g := m.Graph()
	fmt.Printf("scheme: %s, graph n=%d m=%d, %d components, %d shards\n",
		m.Kind(), g.N(), g.M(), m.NumComponents(), m.NumShards())
	fmt.Printf("fault bound: %s\n", boundString(m.FaultBound()))
	fmt.Printf("manifest: %d bytes\n", fileBytes)
	fmt.Printf("%-16s %10s %10s %8s %8s  %s\n", "shard", "bytes", "checksum", "verts", "edges", "components")
	var total int64
	for _, info := range m.Shards() {
		fmt.Printf("%-16s %10d   %08x %8d %8d  %v\n",
			info.Name, info.Bytes, info.Checksum, info.Vertices, info.Edges, info.Components)
		total += info.Bytes
	}
	fmt.Printf("shard files: %d bytes total\n", total)
	if m.NumShards() > 0 {
		sh, err := m.LoadShard(0)
		if err != nil {
			return fmt.Errorf("loading shard 0 for label sizes: %w", err)
		}
		// A partial scheme only labels its own vertices and edges; sample
		// the first of each that shard 0 holds.
		sampleV := int32(-1)
		for v := int32(0); int(v) < g.N(); v++ {
			if m.ShardOf(v) == 0 {
				sampleV = v
				break
			}
		}
		sampleE := ftrouting.EdgeID(-1)
		for e := ftrouting.EdgeID(0); int(e) < g.M(); e++ {
			if m.ShardOf(g.Edge(e).U) == 0 {
				sampleE = e
				break
			}
		}
		fmt.Println("label sizes (from shard 0):")
		printSchemeInfo(sh.Scheme(), 0, sampleV, sampleE)
	}
	return nil
}

// boundString renders a fault bound (-1 = f-independent labels).
func boundString(bound int) string {
	if bound < 0 {
		return "unbounded (f-independent labels)"
	}
	return fmt.Sprintf("f=%d", bound)
}
