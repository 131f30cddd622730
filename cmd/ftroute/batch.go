package main

// Batch query mode of `ftroute query`: -pairs reads (s, t) pairs from a
// file or stdin, prepares the fault set once, evaluates the pairs in
// chunks on the worker pool (-par), and streams one result line per pair
// in input order — the serving workflow the batch API exists for.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ftrouting"
)

// batchChunk is the number of pairs evaluated (and then printed) per
// fan-out round: large enough to amortize pool dispatch, small enough
// that output streams while later chunks compute.
const batchChunk = 4096

// parsePairs reads whitespace-separated "s t" pairs, one per line; blank
// lines and #-comments are skipped.
func parsePairs(r io.Reader) ([]ftrouting.Pair, error) {
	var out []ftrouting.Pair
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("pairs line %d: want \"s t\", got %q", line, text)
		}
		s, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("pairs line %d: bad source %q: %w", line, fields[0], err)
		}
		t, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("pairs line %d: bad target %q: %w", line, fields[1], err)
		}
		out = append(out, ftrouting.Pair{S: int32(s), T: int32(t)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// openPairs opens the -pairs argument ("-" means stdin).
func openPairs(spec string) ([]ftrouting.Pair, error) {
	if spec == "-" {
		return parsePairs(os.Stdin)
	}
	f, err := os.Open(spec)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parsePairs(f)
}

// chunked yields the pair list in batchChunk-sized windows.
func chunked(pairs []ftrouting.Pair, fn func(chunk []ftrouting.Pair) error) error {
	for off := 0; off < len(pairs); off += batchChunk {
		if err := fn(pairs[off:min(off+batchChunk, len(pairs))]); err != nil {
			return err
		}
	}
	return nil
}

// runQueryPlan answers `ftroute query` over a manifest — a scheme file
// arrives as the single resident shard ftrouting.ManifestOf wraps it in.
// The whole batch is planned once, so the fault set and every pair are
// validated before any output; only the touched shards load. Pairs are
// then evaluated and streamed in chunks, one line per pair: "s t
// connected|distance-estimate|reached cost stretch". single selects the
// one-pair report instead.
func runQueryPlan(m *ftrouting.Manifest, header string, pairs []ftrouting.Pair, faults []ftrouting.EdgeID, par int, forbidden, single bool, w io.Writer) error {
	plan, err := m.PlanBatch(ftrouting.QueryBatch{Pairs: pairs, Faults: faults})
	if err != nil {
		return err
	}
	if err := plan.FirstPairError(); err != nil {
		return err
	}
	ctxs := make(map[int]any)
	for _, id := range plan.ShardIDs() {
		sh, err := m.LoadShard(id)
		if err != nil {
			return fmt.Errorf("loading shard %d: %w", id, err)
		}
		if ctxs[id], err = plan.PrepareShard(sh); err != nil {
			return err
		}
	}
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	if single {
		fmt.Fprintf(bw, "%s (%d shards, %d touched)\n", header, m.NumShards(), len(plan.ShardIDs()))
		fmt.Fprintf(bw, "query: s=%d t=%d |F|=%d\n", pairs[0].S, pairs[0].T, len(faults))
	}
	opts := ftrouting.BatchOptions{Parallelism: par}
	return chunked(pairs, func(chunk []ftrouting.Pair) error {
		// Contexts prepared for the whole plan serve every chunk's plan:
		// a shard's fault restriction and the global distinct-fault count
		// depend only on the fault set.
		cp, err := m.PlanBatch(ftrouting.QueryBatch{Pairs: chunk, Faults: faults})
		if err != nil {
			return err
		}
		switch m.Kind() {
		case "conn":
			res, err := cp.ConnectedBatch(ctxs, opts)
			if err != nil {
				return err
			}
			for i, p := range chunk {
				if single {
					fmt.Fprintf(bw, "connected in G\\F: %v\n", res[i])
				} else {
					fmt.Fprintf(bw, "%d %d %v\n", p.S, p.T, res[i])
				}
			}
		case "dist":
			res, err := cp.EstimateBatch(ctxs, opts)
			if err != nil {
				return err
			}
			for i, p := range chunk {
				switch {
				case single && res[i] == ftrouting.Unreachable:
					fmt.Fprintln(bw, "estimate: unreachable")
				case single:
					fmt.Fprintf(bw, "estimate: %d\n", res[i])
				case res[i] == ftrouting.Unreachable:
					fmt.Fprintf(bw, "%d %d unreachable\n", p.S, p.T)
				default:
					fmt.Fprintf(bw, "%d %d %d\n", p.S, p.T, res[i])
				}
			}
		default: // router
			exec := cp.RouteBatch
			if forbidden {
				exec = cp.RouteForbiddenBatch
			}
			res, err := exec(ctxs, opts)
			if err != nil {
				return err
			}
			for i, p := range chunk {
				if single {
					printRouteResult(bw, res[i])
				} else {
					fmt.Fprintf(bw, "%d %d %v %d %.2f\n", p.S, p.T, res[i].Reached, res[i].Cost, res[i].Stretch)
				}
			}
		}
		return bw.Flush()
	})
}
