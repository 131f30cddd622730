// Command ftroute is a CLI for the ftrouting library: generate graphs,
// build fault-tolerant labels, answer connectivity/distance queries under
// faults, run routing simulations, and persist preprocessed schemes to
// disk so queries are served without rebuilding.
//
// Usage:
//
//	ftroute conn  -graph random -n 100 -extra 150 -f 3 -s 0 -t 99 -faults 1,2,3
//	ftroute dist  -graph grid -rows 8 -cols 8 -f 2 -k 2 -s 0 -t 63 -faults 5
//	ftroute route -graph fattree -ft-k 4 -f 2 -k 2 -s 20 -t 35 -faults 7,9
//	ftroute sweep -graph random -n 100 -f 2 -queries 100
//	ftroute lower -f 4 -len 32
//
// Build-once-serve-many (the preprocessing runs once; queries load the
// scheme file and answer bit-identically to the freshly built scheme):
//
//	ftroute build -type conn  -graph random -n 100 -f 3 -out conn.ftl
//	ftroute build -type dist  -graph grid -rows 8 -cols 8 -f 2 -k 2 -out dist.ftl
//	ftroute build -type route -graph fattree -ft-k 4 -f 2 -k 2 -out route.ftl
//	ftroute query -in conn.ftl -s 0 -t 99 -faults 1,2,3
//	ftroute query -in dist.ftl -s 0 -t 63 -faults 5
//	ftroute route -in route.ftl -s 20 -t 35 -faults 7,9
//
// Batch serving (one fault-set preparation, parallel pair evaluation,
// streamed results; pairs are "s t" lines, - reads stdin):
//
//	ftroute query -in conn.ftl -pairs pairs.txt -faults 1,2,3 -par 0
//	generate-pairs | ftroute query -in dist.ftl -pairs - -faults 5
//
// Long-running daemon (HTTP/JSON batch API with a prepared-fault-context
// cache; see package serve for endpoints and wire format):
//
//	ftroute serve -in conn.ftl -addr :8080 -par 0 -ctxcache 64
//	curl -s localhost:8080/v1/healthz
//	curl -s -d '{"pairs":[[0,99]],"faults":[1,2,3]}' localhost:8080/v1/connected
//
// Sharded serving (split a scheme per connected component; the daemon
// loads only the shards a batch touches, evicting least-recently-used
// under a memory budget, and answers bit-identically to the monolithic
// daemon):
//
//	ftroute build -type conn -graph islands -n 40 -f 3 -out islands.ftlb
//	ftroute shard -in islands.ftlb -out-dir shards/
//	ftroute info shards/manifest.ftm
//	ftroute query -in shards/ -s 0 -t 39 -faults 1,2
//	ftroute serve -in shards/ -addr :8080 -shard-budget 67108864
//
// Remote shard backends (the -in reference may be an http(s) URL; a
// manifest fetched from a URL pulls its shards from the same base on
// demand, verifying each against the manifest's checksum before
// install, so a replica holds nothing on local disk; -shard-store
// points an on-disk manifest at a separate backend):
//
//	ftroute blobserve -dir shards/ -addr :8090 &
//	ftroute serve -in http://localhost:8090/ -addr :8080
//	ftroute query -in http://localhost:8090/manifest.ftm -s 0 -t 39
//	ftroute serve -in manifest.ftm -shard-store http://blobs:8090 -fetch-retries 5 -addr :8080
//
// Fan-out proxy tier (shard-affine replicas behind a stateless proxy;
// every tier speaks the same wire protocol and answers byte-identically,
// so proxies stack):
//
//	ftroute serve -in shards/ -addr :8081 &
//	ftroute serve -in shards/ -addr :8082 &
//	ftroute proxy -in shards/ -replicas http://localhost:8081,http://localhost:8082 -replication 2 -addr :8080
//	curl -s -d '{"pairs":[[0,39]],"faults":[1,2]}' localhost:8080/v1/connected
//
// Load testing (open-loop coordinated-omission-safe generator; a fixed
// -seed replays the identical Zipf-skewed request schedule at any
// -workers count, and real topologies import via -graph file:PATH at
// build time):
//
//	ftroute build -type conn -graph file:as-topology.txt -f 2 -out as.ftlb
//	ftroute shard -in as.ftlb -out-dir shards/
//	ftroute serve -in shards/ -addr :8080 &
//	ftroute loadgen -target http://localhost:8080 -rate 2000 -duration 30s \
//	  -pair-skew 1.1 -fault-sets 64 -faults-per-set 2 -fault-skew 1.2 \
//	  -name as_sharded -out BENCH_as_sharded.json
//
// Observability (both daemons): Prometheus metrics at GET /metrics
// (-metrics off disables), structured JSON access logs on stderr with
// request trace IDs (-log-level, -log-sample), an opt-in per-stage
// timing echo (?debug=timing), and a pprof side listener (-debug-addr):
//
//	ftroute serve -in conn.ftl -addr :8080 -log-level warn -debug-addr :6060
//	curl -s localhost:8080/metrics
//	curl -s -H 'X-Ftroute-Trace: my-trace-1' -d '{"pairs":[[0,99]]}' 'localhost:8080/v1/connected?debug=timing'
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ftrouting"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "conn":
		err = runConn(args)
	case "dist":
		err = runDist(args)
	case "route":
		err = runRoute(args)
	case "lower":
		err = runLower(args)
	case "sweep":
		err = runSweep(args)
	case "build":
		err = runBuild(args)
	case "query":
		err = runQuery(args)
	case "serve":
		err = runServe(args)
	case "proxy":
		err = runProxy(args)
	case "shard":
		err = runShard(args)
	case "blobserve":
		err = runBlobserve(args)
	case "loadgen":
		err = runLoadgen(args)
	case "info":
		err = runInfo(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftroute:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: ftroute <conn|dist|route|sweep|lower|build|query|serve|proxy|shard|blobserve|loadgen|info> [flags]
  conn   connectivity query under faults from labels
  dist   approximate distance query under faults from labels
  route  fault-tolerant routing simulation (-in loads a saved router)
  sweep  aggregate routing statistics over many random queries
  lower  Theorem 1.6 lower-bound experiment
  build  preprocess once and write a scheme file (-type conn|dist|route)
  query  answer from a scheme source without rebuilding; -in takes a
         scheme file, a shard manifest (file or directory), or an
         http(s) URL of either (auto-detected; manifests load only the
         shards the batch touches, remote shards are fetched and
         verified on demand). -pairs FILE|- batches many "s t" queries
         over the worker pool
  serve  long-running HTTP daemon answering pair batches (-addr, -par,
         -ctxcache; see package serve for the API); -in takes a scheme
         file, a shard manifest, or an http(s) URL of either
         (auto-detected; manifest mode lazily loads/evicts shards under
         -shard-budget bytes). -shard-store DIR|URL fetches shards from
         a separate backend so a replica needs only manifest.ftm;
         -fetch-timeout/-fetch-retries/-fetch-backoff tune remote
         fetching. Observability: -metrics (GET /metrics),
         -log-level/-log-sample (JSON access log with trace IDs),
         -debug-addr (pprof side listener)
  proxy  fan-out daemon over shard-affine replicas: loads only a shard
         manifest, assigns shards to -replicas balanced by bytes (with
         -replication failover), splits each batch per shard and merges
         replies byte-identically to a single daemon; shares serve's
         observability flags and propagates X-Ftroute-Trace on fan-out
  shard  split a scheme file into a manifest + per-component shard files
  blobserve  serve a directory of shard blobs over plain HTTP (the
         static backend a manifest-only replica fetches from)
  loadgen  coordinated-omission-safe load generator against any daemon:
         fixed-rate open-loop scheduling (-rate; 0 = closed-loop max
         throughput), Zipf-skewed pairs and fault sets (-pair-skew,
         -fault-sets/-faults-per-set/-fault-skew), corrected
         p50/p99/p999 + q/s, and a BENCH_<name>.json artifact with the
         server's /v1/stats delta; fixed -seed replays the identical
         request schedule at any -workers count
  info   print header, counts, fault bound and label sizes of a scheme
         or manifest file`)
}

// graphFlags declares the shared topology flags on a FlagSet.
type graphFlags struct {
	kind    *string
	n       *int
	extra   *int
	rows    *int
	cols    *int
	ftK     *int
	maxW    *int64
	seed    *uint64
	s, t    *int
	faults  *string
	builder func() (*ftrouting.Graph, error)
}

func addGraphFlags(fs *flag.FlagSet) *graphFlags {
	gf := &graphFlags{
		kind:   fs.String("graph", "random", "topology: random|grid|fattree|ring|star|path|islands|file:PATH (SNAP edge list)"),
		n:      fs.Int("n", 100, "vertices (random/star/path)"),
		extra:  fs.Int("extra", 150, "extra edges beyond spanning tree (random)"),
		rows:   fs.Int("rows", 8, "grid rows"),
		cols:   fs.Int("cols", 8, "grid cols"),
		ftK:    fs.Int("ft-k", 4, "fat-tree arity (even)"),
		maxW:   fs.Int64("maxw", 1, "max edge weight (1 = unweighted)"),
		seed:   fs.Uint64("seed", 1, "random seed"),
		s:      fs.Int("s", 0, "source vertex"),
		t:      fs.Int("t", 1, "target vertex"),
		faults: fs.String("faults", "", "comma-separated faulty edge ids"),
	}
	gf.builder = func() (*ftrouting.Graph, error) {
		var g *ftrouting.Graph
		if path, ok := strings.CutPrefix(*gf.kind, "file:"); ok {
			// Real topology import: a SNAP-style edge list ("u v" or
			// "u v w" lines, '#'/'%' comments, sparse ids densified).
			g, err := ftrouting.LoadEdgeList(path)
			if err != nil {
				return nil, err
			}
			if *gf.maxW > 1 {
				g = ftrouting.WithRandomWeights(g, *gf.maxW, *gf.seed+1)
			}
			return g, nil
		}
		switch *gf.kind {
		case "random":
			g = ftrouting.RandomConnected(*gf.n, *gf.extra, *gf.seed)
		case "grid":
			g = ftrouting.Grid(*gf.rows, *gf.cols)
		case "fattree":
			g, _ = ftrouting.FatTree(*gf.ftK)
		case "ring":
			g = ftrouting.RingOfCliques(6, 5)
		case "star":
			g = ftrouting.Star(*gf.n)
		case "path":
			g = ftrouting.Path(*gf.n)
		case "islands":
			// Disconnected: *gf.n vertices per island, 4 islands — the
			// workload `ftroute shard` splits one file per component.
			g = ftrouting.Islands(4, *gf.n, *gf.extra, *gf.seed)
		default:
			return nil, fmt.Errorf("unknown graph kind %q", *gf.kind)
		}
		if *gf.maxW > 1 {
			g = ftrouting.WithRandomWeights(g, *gf.maxW, *gf.seed+1)
		}
		return g, nil
	}
	return gf
}

func (gf *graphFlags) faultIDs() ([]ftrouting.EdgeID, error) {
	return parseFaultList(*gf.faults)
}

func runConn(args []string) error {
	fs := flag.NewFlagSet("conn", flag.ExitOnError)
	gf := addGraphFlags(fs)
	f := fs.Int("f", 2, "fault bound")
	scheme := fs.String("scheme", "sketch", "labeling scheme: sketch|cut")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := gf.builder()
	if err != nil {
		return err
	}
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
	faults, err := gf.faultIDs()
	if err != nil {
		return err
	}
	connected, err := labels.Connected(int32(*gf.s), int32(*gf.t), faults)
	if err != nil {
		return err
	}
	fmt.Printf("graph: n=%d m=%d   query: s=%d t=%d |F|=%d\n", g.N(), g.M(), *gf.s, *gf.t, len(faults))
	fmt.Printf("vertex label: %d bits, edge label: %d bits\n",
		labels.VertexLabel(int32(*gf.s)).Bits(), edgeBitsOrZero(labels, g))
	fmt.Printf("connected in G\\F: %v\n", connected)
	return nil
}

func edgeBitsOrZero(l *ftrouting.ConnLabels, g *ftrouting.Graph) int {
	if g.M() == 0 {
		return 0
	}
	return l.EdgeLabel(0).Bits()
}

func runDist(args []string) error {
	fs := flag.NewFlagSet("dist", flag.ExitOnError)
	gf := addGraphFlags(fs)
	f := fs.Int("f", 2, "fault bound")
	k := fs.Int("k", 2, "stretch parameter")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := gf.builder()
	if err != nil {
		return err
	}
	labels, err := ftrouting.BuildDistanceLabels(g, *f, *k, *gf.seed)
	if err != nil {
		return err
	}
	faults, err := gf.faultIDs()
	if err != nil {
		return err
	}
	est, err := labels.Estimate(int32(*gf.s), int32(*gf.t), faults)
	if err != nil {
		return err
	}
	truth := ftrouting.Distance(g, int32(*gf.s), int32(*gf.t), ftrouting.NewEdgeSet(faults...))
	fmt.Printf("graph: n=%d m=%d   query: s=%d t=%d |F|=%d\n", g.N(), g.M(), *gf.s, *gf.t, len(faults))
	if est == ftrouting.Unreachable {
		fmt.Println("estimate: unreachable")
	} else {
		fmt.Printf("estimate: %d  (true distance %d, guarantee <= %dx)\n",
			est, truth, labels.StretchBound(len(faults)))
	}
	return nil
}

func runRoute(args []string) error {
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	gf := addGraphFlags(fs)
	f := fs.Int("f", 2, "fault bound")
	k := fs.Int("k", 2, "stretch parameter")
	balanced := fs.Bool("balanced", true, "use Γ-load-balanced tables (Claim 5.7)")
	forbidden := fs.Bool("forbidden", false, "forbidden-set mode (faults known to source)")
	in := fs.String("in", "", "load a saved router (ftroute build -type route) instead of building")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var router *ftrouting.Router
	if *in != "" {
		file, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer file.Close()
		router, err = ftrouting.LoadRouter(file)
		if err != nil {
			return err
		}
		fmt.Printf("loaded router from %s\n", *in)
	} else {
		g, err := gf.builder()
		if err != nil {
			return err
		}
		router, err = ftrouting.NewRouter(g, *f, *k, ftrouting.RouterOptions{Seed: *gf.seed, Balanced: *balanced})
		if err != nil {
			return err
		}
		fmt.Printf("graph: n=%d m=%d\n", g.N(), g.M())
	}
	faults, err := gf.faultIDs()
	if err != nil {
		return err
	}
	var res ftrouting.RouteResult
	if *forbidden {
		res, err = router.RouteForbidden(int32(*gf.s), int32(*gf.t), faults)
	} else {
		res, err = router.Route(int32(*gf.s), int32(*gf.t), ftrouting.NewEdgeSet(faults...))
	}
	if err != nil {
		return err
	}
	fmt.Printf("route: s=%d t=%d |F|=%d\n", *gf.s, *gf.t, len(faults))
	fmt.Printf("max table: %.1f Kbit   label(t): %d bits\n",
		float64(router.MaxTableBits())/1024, router.LabelBits(int32(*gf.t)))
	printRouteResult(os.Stdout, res)
	return nil
}

func runLower(args []string) error {
	fs := flag.NewFlagSet("lower", flag.ExitOnError)
	f := fs.Int("f", 4, "number of faults")
	plen := fs.Int("len", 32, "path length L")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, s, t, last := ftrouting.LowerBoundGraph(*f, *plen)
	router, err := ftrouting.NewRouter(g, *f, 2, ftrouting.RouterOptions{Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Printf("Theorem 1.6 instance: %d disjoint s-t paths of length %d\n", *f+1, *plen)
	var sum float64
	for alive := 0; alive <= *f; alive++ {
		faults := ftrouting.NewEdgeSet()
		for i, e := range last {
			if i != alive {
				faults[e] = true
			}
		}
		res, err := router.Route(s, t, faults)
		if err != nil {
			return err
		}
		fmt.Printf("  surviving path %d: cost=%d stretch=%.2f\n", alive, res.Cost, res.Stretch)
		sum += res.Stretch
	}
	fmt.Printf("expected stretch over adversary choices: %.2f (Ω(f) per Thm 1.6, f=%d)\n",
		sum/float64(*f+1), *f)
	return nil
}
