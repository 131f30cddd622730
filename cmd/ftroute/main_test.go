package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ftrouting"
)

func parseWith(t *testing.T, args []string) *graphFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	gf := addGraphFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return gf
}

func TestFaultIDParsing(t *testing.T) {
	gf := parseWith(t, []string{"-faults", "1, 2,3"})
	ids, err := gf.faultIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("ids = %v", ids)
	}
	gf = parseWith(t, nil)
	ids, err = gf.faultIDs()
	if err != nil || ids != nil {
		t.Fatalf("empty faults: %v %v", ids, err)
	}
	gf = parseWith(t, []string{"-faults", "1,x"})
	if _, err := gf.faultIDs(); err == nil {
		t.Fatal("bad fault id accepted")
	}
}

func TestGraphBuilderKinds(t *testing.T) {
	cases := []struct {
		args []string
		n    int
	}{
		{[]string{"-graph", "random", "-n", "20", "-extra", "5"}, 20},
		{[]string{"-graph", "grid", "-rows", "3", "-cols", "4"}, 12},
		{[]string{"-graph", "fattree", "-ft-k", "4"}, 36},
		{[]string{"-graph", "star", "-n", "9"}, 9},
		{[]string{"-graph", "path", "-n", "6"}, 6},
		{[]string{"-graph", "ring"}, 30},
	}
	for _, c := range cases {
		gf := parseWith(t, c.args)
		g, err := gf.builder()
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if g.N() != c.n {
			t.Fatalf("%v: N=%d want %d", c.args, g.N(), c.n)
		}
	}
	gf := parseWith(t, []string{"-graph", "nope"})
	if _, err := gf.builder(); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestWeightedBuilder(t *testing.T) {
	gf := parseWith(t, []string{"-graph", "path", "-n", "10", "-maxw", "7"})
	g, err := gf.builder()
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxWeight() < 2 || g.MaxWeight() > 7 {
		t.Fatalf("weights not applied: max %d", g.MaxWeight())
	}
}

// TestSubcommandsEndToEnd drives the actual subcommand entry points.
func TestSubcommandsEndToEnd(t *testing.T) {
	if err := runConn([]string{"-graph", "path", "-n", "8", "-s", "0", "-t", "7", "-faults", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := runConn([]string{"-graph", "path", "-n", "8", "-scheme", "cut", "-s", "0", "-t", "7"}); err != nil {
		t.Fatal(err)
	}
	if err := runDist([]string{"-graph", "grid", "-rows", "4", "-cols", "4", "-s", "0", "-t", "15"}); err != nil {
		t.Fatal(err)
	}
	if err := runRoute([]string{"-graph", "ring", "-s", "0", "-t", "12", "-f", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := runRoute([]string{"-graph", "ring", "-s", "0", "-t", "12", "-f", "1", "-forbidden"}); err != nil {
		t.Fatal(err)
	}
	if err := runLower([]string{"-f", "2", "-len", "8"}); err != nil {
		t.Fatal(err)
	}
	if err := runSweep([]string{"-graph", "grid", "-rows", "4", "-cols", "5", "-f", "1", "-queries", "10"}); err != nil {
		t.Fatal(err)
	}
	if err := runSweep([]string{"-graph", "path", "-n", "12", "-f", "1", "-queries", "5", "-forbidden"}); err != nil {
		t.Fatal(err)
	}
}

// TestBuildQueryWorkflow drives the build-once-serve-many path: build
// writes a scheme file, query and route -in serve from it.
func TestBuildQueryWorkflow(t *testing.T) {
	dir := t.TempDir()
	connFile := filepath.Join(dir, "conn.ftl")
	distFile := filepath.Join(dir, "dist.ftl")
	routeFile := filepath.Join(dir, "route.ftl")

	if err := runBuild([]string{"-type", "conn", "-graph", "random", "-n", "30", "-extra", "40", "-f", "2", "-out", connFile}); err != nil {
		t.Fatal(err)
	}
	if err := runBuild([]string{"-type", "conn", "-scheme", "cut", "-graph", "path", "-n", "9", "-out", filepath.Join(dir, "cut.ftl")}); err != nil {
		t.Fatal(err)
	}
	if err := runBuild([]string{"-type", "dist", "-graph", "grid", "-rows", "3", "-cols", "4", "-f", "1", "-out", distFile}); err != nil {
		t.Fatal(err)
	}
	if err := runBuild([]string{"-type", "route", "-graph", "path", "-n", "12", "-f", "1", "-out", routeFile}); err != nil {
		t.Fatal(err)
	}
	if err := runBuild([]string{"-type", "nope", "-out", filepath.Join(dir, "x.ftl")}); err == nil {
		t.Fatal("unknown -type accepted")
	}

	if err := runQuery([]string{"-in", connFile, "-s", "0", "-t", "29", "-faults", "1,2"}); err != nil {
		t.Fatal(err)
	}
	if err := runQuery([]string{"-in", filepath.Join(dir, "cut.ftl"), "-s", "0", "-t", "8", "-faults", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := runQuery([]string{"-in", distFile, "-s", "0", "-t", "11"}); err != nil {
		t.Fatal(err)
	}
	if err := runQuery([]string{"-in", routeFile, "-s", "0", "-t", "11", "-faults", "4"}); err != nil {
		t.Fatal(err)
	}
	if err := runQuery([]string{"-in", routeFile, "-s", "0", "-t", "11", "-faults", "4", "-forbidden"}); err != nil {
		t.Fatal(err)
	}
	if err := runRoute([]string{"-in", routeFile, "-s", "0", "-t", "11", "-faults", "4"}); err != nil {
		t.Fatal(err)
	}

	// Batch mode: pairs file against every scheme kind, streamed output.
	pairsFile := filepath.Join(dir, "pairs.txt")
	if err := os.WriteFile(pairsFile, []byte("# header comment\n0 29\n1 2\n\n3 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runQuery([]string{"-in", connFile, "-pairs", pairsFile, "-faults", "1,2"}); err != nil {
		t.Fatal(err)
	}
	distPairs := filepath.Join(dir, "dpairs.txt")
	if err := os.WriteFile(distPairs, []byte("0 11\n5 6\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runQuery([]string{"-in", distFile, "-pairs", distPairs, "-par", "1"}); err != nil {
		t.Fatal(err)
	}
	routePairs := filepath.Join(dir, "rpairs.txt")
	if err := os.WriteFile(routePairs, []byte("0 11\n11 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runQuery([]string{"-in", routeFile, "-pairs", routePairs, "-faults", "4"}); err != nil {
		t.Fatal(err)
	}
	if err := runQuery([]string{"-in", routeFile, "-pairs", routePairs, "-faults", "4", "-forbidden"}); err != nil {
		t.Fatal(err)
	}
	// Malformed pairs files fail cleanly.
	badPairs := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(badPairs, []byte("0 1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runQuery([]string{"-in", connFile, "-pairs", badPairs}); err == nil {
		t.Fatal("malformed pairs line accepted")
	}
	if err := runQuery([]string{"-in", connFile, "-pairs", filepath.Join(dir, "absent-pairs.txt")}); err == nil {
		t.Fatal("missing pairs file accepted")
	}

	// Missing and corrupt files fail cleanly.
	if err := runQuery([]string{"-in", filepath.Join(dir, "absent.ftl")}); err == nil {
		t.Fatal("missing file accepted")
	}
	garbled := filepath.Join(dir, "garbled.ftl")
	data, err := os.ReadFile(connFile)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(garbled, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runQuery([]string{"-in", garbled, "-s", "0", "-t", "1"}); err == nil {
		t.Fatal("corrupt file accepted")
	}
}

// TestUnifiedSourceResolution drives the one -in flag over every source
// form: a monolithic scheme file, a manifest file, and a manifest
// directory are auto-detected through ftrouting.Open.
func TestUnifiedSourceResolution(t *testing.T) {
	dir := t.TempDir()
	connFile := filepath.Join(dir, "conn.ftl")
	if err := runBuild([]string{"-type", "conn", "-scheme", "cut", "-graph", "random", "-n", "30", "-extra", "40", "-f", "2", "-out", connFile}); err != nil {
		t.Fatal(err)
	}
	shardDir := filepath.Join(dir, "shards")
	if err := runShard([]string{"-in", connFile, "-out-dir", shardDir}); err != nil {
		t.Fatal(err)
	}

	// ftrouting.Open sniffs the artifact kind from the codec header.
	if src, err := ftrouting.Open(connFile); err != nil || src.Manifest() != nil || src.Scheme() == nil {
		t.Fatalf("monolithic file: src=%+v err=%v", src, err)
	}
	if src, err := ftrouting.Open(shardDir); err != nil || src.Manifest() == nil {
		t.Fatalf("manifest directory: src=%+v err=%v", src, err)
	}
	if src, err := ftrouting.Open(filepath.Join(shardDir, ftrouting.ManifestFileName)); err != nil || src.Manifest() == nil {
		t.Fatalf("manifest file: src=%+v err=%v", src, err)
	}
	if _, err := ftrouting.Open(filepath.Join(dir, "absent")); err == nil {
		t.Fatal("missing source accepted")
	}

	// query -in serves from either form without a mode flag...
	if err := runQuery([]string{"-in", shardDir, "-s", "0", "-t", "29", "-faults", "1,2"}); err != nil {
		t.Fatal(err)
	}
	if err := runQuery([]string{"-in", connFile, "-s", "0", "-t", "29", "-faults", "1,2"}); err != nil {
		t.Fatal(err)
	}
	// ...and a -shard-store override pointing at a copy of the shard
	// directory still serves (the manifest alone routes the query).
	if err := runQuery([]string{"-in", filepath.Join(shardDir, ftrouting.ManifestFileName),
		"-shard-store", shardDir, "-s", "0", "-t", "29"}); err != nil {
		t.Fatal(err)
	}
	// -shard-store refuses monolithic sources.
	if err := runQuery([]string{"-in", connFile, "-shard-store", shardDir, "-s", "0", "-t", "1"}); err == nil ||
		!strings.Contains(err.Error(), "monolithic") {
		t.Fatalf("-shard-store over a monolithic file: %v", err)
	}

	// proxy needs a manifest and at least one replica.
	if err := runProxy([]string{"-in", connFile, "-replicas", "http://127.0.0.1:1"}); err == nil ||
		!strings.Contains(err.Error(), "monolithic") {
		t.Fatalf("proxy over a monolithic file: %v", err)
	}
	if err := runProxy([]string{"-in", shardDir, "-replicas", " , "}); err == nil ||
		!strings.Contains(err.Error(), "replica") {
		t.Fatalf("proxy without replicas: %v", err)
	}
	// An unreachable replica fails startup verification, not serving.
	if err := runProxy([]string{"-in", shardDir, "-replicas", "http://127.0.0.1:1"}); err == nil {
		t.Fatal("proxy accepted an unreachable replica")
	}
}

// TestQueryOutOfRangeVertex proves `ftroute query` rejects a vertex
// beyond the graph with the typed vertex_out_of_range code, for scheme
// files and manifests alike, in single-pair and -pairs mode.
func TestQueryOutOfRangeVertex(t *testing.T) {
	dir := t.TempDir()
	connFile := filepath.Join(dir, "conn.ftl")
	if err := runBuild([]string{"-type", "conn", "-graph", "random", "-n", "30", "-extra", "40", "-f", "2", "-out", connFile}); err != nil {
		t.Fatal(err)
	}
	routeFile := filepath.Join(dir, "route.ftl")
	if err := runBuild([]string{"-type", "route", "-graph", "path", "-n", "12", "-f", "1", "-out", routeFile}); err != nil {
		t.Fatal(err)
	}
	shardDir := filepath.Join(dir, "shards")
	if err := runShard([]string{"-in", connFile, "-out-dir", shardDir}); err != nil {
		t.Fatal(err)
	}
	pairsFile := filepath.Join(dir, "pairs.txt")
	if err := os.WriteFile(pairsFile, []byte("0 1\n2 500\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-in", connFile, "-s", "0", "-t", "500"},
		{"-in", shardDir, "-s", "500", "-t", "0"},
		{"-in", routeFile, "-s", "0", "-t", "500", "-forbidden"},
		{"-in", connFile, "-pairs", pairsFile},
	} {
		err := runQuery(args)
		if got := ftrouting.CodeOf(err); got != ftrouting.CodeVertexRange {
			t.Errorf("query %v: err %v (code %q), want %q", args, err, got, ftrouting.CodeVertexRange)
		}
	}
}

// TestInfoTruncatedHeader runs `ftroute info` on a file that ends inside
// the 8-byte artifact header: the command must fail with a truncation
// error and a non-zero exit, not describe a kind it never read.
func TestInfoTruncatedHeader(t *testing.T) {
	if path := os.Getenv("FTROUTE_TEST_INFO"); path != "" {
		os.Args = []string{"ftroute", "info", path}
		main()
		return
	}
	path := filepath.Join(t.TempDir(), "short.ftl")
	if err := os.WriteFile(path, []byte("FTLB\x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runInfo([]string{path}); !errors.Is(err, ftrouting.ErrTruncated) {
		t.Fatalf("info on a 5-byte file: %v, want ErrTruncated", err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestInfoTruncatedHeader$")
	cmd.Env = append(os.Environ(), "FTROUTE_TEST_INFO="+path)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("ftroute info exited cleanly (%v):\n%s", err, out)
	}
	if !strings.Contains(string(out), "truncated") {
		t.Fatalf("ftroute info output lacks the truncation error:\n%s", out)
	}
}
