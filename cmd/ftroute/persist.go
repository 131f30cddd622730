package main

// build/query: the build-once-serve-many workflow. `ftroute build`
// preprocesses a graph into a scheme file (package internal/codec
// documents the format); `ftroute query` (and `ftroute route -in`)
// memory-loads the file and answers without re-running preprocessing.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ftrouting"
)

func runBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	gf := addGraphFlags(fs)
	typ := fs.String("type", "conn", "scheme to build: conn|dist|route")
	out := fs.String("out", "scheme.ftl", "output file")
	f := fs.Int("f", 2, "fault bound")
	k := fs.Int("k", 2, "stretch parameter (dist/route)")
	scheme := fs.String("scheme", "sketch", "connectivity labeling scheme: sketch|cut")
	balanced := fs.Bool("balanced", true, "use Γ-load-balanced tables (route)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := gf.builder()
	if err != nil {
		return err
	}
	file, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer file.Close()
	switch *typ {
	case "conn":
		kind := ftrouting.SketchBased
		if *scheme == "cut" {
			kind = ftrouting.CutBased
		}
		labels, err := ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{
			Scheme: kind, MaxFaults: *f, Seed: *gf.seed,
		})
		if err != nil {
			return err
		}
		if err := ftrouting.SaveConnLabels(file, labels); err != nil {
			return err
		}
	case "dist":
		labels, err := ftrouting.BuildDistanceLabels(g, *f, *k, *gf.seed)
		if err != nil {
			return err
		}
		if err := ftrouting.SaveDistLabels(file, labels); err != nil {
			return err
		}
	case "route":
		router, err := ftrouting.NewRouter(g, *f, *k, ftrouting.RouterOptions{Seed: *gf.seed, Balanced: *balanced})
		if err != nil {
			return err
		}
		if err := ftrouting.SaveRouter(file, router); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -type %q (want conn|dist|route)", *typ)
	}
	if err := file.Close(); err != nil {
		return err
	}
	info, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("built %s scheme: graph n=%d m=%d\n", *typ, g.N(), g.M())
	fmt.Printf("wrote %s: %d bytes (%.1f bits/vertex)\n", *out, info.Size(), float64(8*info.Size())/float64(max(g.N(), 1)))
	return nil
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	sf := addSourceFlags(fs, "scheme.ftl",
		"scheme source: a scheme file written by ftroute build, a manifest (file or directory) written by ftroute shard, or an http(s) URL of either — auto-detected; manifests load only the shards the query touches")
	s := fs.Int("s", 0, "source vertex")
	t := fs.Int("t", 1, "target vertex")
	faultsFlag := fs.String("faults", "", "comma-separated faulty edge ids")
	forbidden := fs.Bool("forbidden", false, "forbidden-set mode (route files)")
	pairsFlag := fs.String("pairs", "", "batch mode: file of \"s t\" lines (- for stdin); one result line per pair")
	par := fs.Int("par", 0, "batch workers: 0 uses GOMAXPROCS, 1 is sequential")
	if err := fs.Parse(args); err != nil {
		return err
	}
	faults, err := parseFaultList(*faultsFlag)
	if err != nil {
		return err
	}
	src, err := sf.open()
	if err != nil {
		return err
	}
	m, what := src.Manifest(), "manifest"
	if m == nil {
		if m, err = ftrouting.ManifestOf(src.Scheme()); err != nil {
			return err
		}
		what = "scheme"
	}
	header := fmt.Sprintf("loaded %s %s from %s", m.Kind(), what, src.Ref())
	pairs := []ftrouting.Pair{{S: int32(*s), T: int32(*t)}}
	if *pairsFlag != "" {
		if pairs, err = openPairs(*pairsFlag); err != nil {
			return err
		}
	}
	return runQueryPlan(m, header, pairs, faults, *par, *forbidden, *pairsFlag == "", os.Stdout)
}

// parseFaultList parses a comma-separated edge id list.
func parseFaultList(spec string) ([]ftrouting.EdgeID, error) {
	if spec == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ",")
	out := make([]ftrouting.EdgeID, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad fault id %q: %w", p, err)
		}
		out = append(out, ftrouting.EdgeID(v))
	}
	return out, nil
}

// printRouteResult renders a routing simulation outcome.
func printRouteResult(w io.Writer, res ftrouting.RouteResult) {
	if !res.Reached {
		fmt.Fprintln(w, "result: destination unreachable in G\\F")
		return
	}
	fmt.Fprintf(w, "result: delivered, cost=%d (optimal %d, stretch %.2f)\n", res.Cost, res.Opt, res.Stretch)
	fmt.Fprintf(w, "        hops=%d detections=%d probes=%d header<=%d bits\n",
		res.Hops, res.Detections, res.Probes, res.MaxHeaderBits)
}
