// Command experiments regenerates every table and figure of the paper's
// quantitative claims (Table 1, Figures 1-4, and the theorem bounds) and
// prints them as aligned text tables. DESIGN.md §2 indexes them.
// E15 additionally measures the persisted schemes of internal/codec:
// scheme-file sizes and encoded label sizes in bits, on the wire. E18
// measures sharded vs monolithic serving: per-shard resident bytes,
// cold-shard load latency, and warm q/s of the shard router against the
// whole-scheme server. E19 measures the observability layer's overhead:
// warm q/s of the instrumented daemon (metrics + access log) against the
// bare one. E21 audits the warm query path: allocations per prepared
// query and warm q/s of each eval stage (see BENCH_E21.json for
// serve-level before/after).
//
// Batch and served throughput are measured elsewhere: the gated
// BenchmarkQueryBatch* and BenchmarkServe* microbenchmarks cover the
// batch engine and the daemon handler, and the perfbench module (bash
// perfbench/run.sh) drives a real daemon at a fixed offered rate and
// reports end-to-end and per-layer costs.
//
// Usage:
//
//	experiments [-seed N] [-only E10]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ftrouting/internal/experiments"
)

func main() {
	seed := flag.Uint64("seed", 42, "master random seed (results are deterministic per seed)")
	only := flag.String("only", "", "run a single experiment by id (e.g. E10)")
	flag.Parse()

	start := time.Now()
	fmt.Printf("ftrouting experiment suite  (seed=%d)\n", *seed)
	fmt.Printf("reproducing: Dory, Parter. Fault-Tolerant Labeling and Compact Routing Schemes. PODC 2021.\n\n")

	ran := 0
	registry := append(experiments.Registry(),
		experiments.Experiment{ID: "E15", Run: persistedSizes},
		experiments.Experiment{ID: "E18", Run: shardThroughput},
		experiments.Experiment{ID: "E19", Run: obsCost},
		experiments.Experiment{ID: "E21", Run: allocAudit},
	)
	// Filter before running: -only must not pay for the experiments it
	// skips (E18/E19 alone drive seconds of loopback measurement).
	for _, e := range registry {
		if *only != "" && e.ID != *only {
			continue
		}
		fmt.Println(e.Run(*seed).String())
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matches -only=%q\n", *only)
		os.Exit(2)
	}
	fmt.Printf("completed %d experiments in %s\n", ran, time.Since(start).Round(time.Millisecond))
}
