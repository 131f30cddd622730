// Command perfbench is the serving benchmark of ftrouting: it builds a
// scheme per workload, serves it from a real `ftroute serve` daemon,
// drives the daemon from one paced open-loop client, checks every
// answer against the in-process facade, and prints the end-to-end
// metrics (--trace 0) or the per-layer ledger (--trace 1). The last line
// of standard output is one JSON object with the metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metric is one measured value as the JSON result carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report holds a run's metrics: those of the JSON result and the extra
// figures printed for reading only.
type report struct {
	result map[string]metric
	lines  []string
	flags  []string
}

func newReport() *report { return &report{result: map[string]metric{}} }

func (r *report) line(name string, v float64, unit, note string) {
	l := fmt.Sprintf("  %-28s %14.4f %-8s", name, v, unit)
	if note != "" {
		l += "  " + note
	}
	r.lines = append(r.lines, l)
}

// put records a metric of the JSON result; info one printed only.
func (r *report) put(name string, v float64, unit, note string) {
	r.result[name] = metric{v, unit}
	r.line(name, v, unit, note)
}

func (r *report) info(name string, v float64, unit, note string) { r.line(name, v, unit, note) }

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed of the traffic: pair popularity, fault sets and requests")
	seconds := fs.Float64("seconds", 10, "measured seconds per workload run")
	trace := fs.Int("trace", 0, "0 measures end-to-end metrics; 1 records spans and reports the per-layer ledger")
	bin := fs.String("ftroute", "", "path of the ftroute binary")
	work := fs.String("work", "", "scratch directory for scheme files and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *bin == "" || *work == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -ftroute, -work, --seconds > 0 and --trace 0|1")
		return 2
	}
	var wls []*workload
	if *name == "all" {
		wls = workloads
	} else {
		wl, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		wls = []*workload{wl}
	}
	// The driver never opens more connections than there are CPUs, and
	// two at most: on two vCPUs more would measure the scheduler.
	cfg := config{seed: *seed, seconds: *seconds, conns: min(runtime.NumCPU(), 2), bin: *bin, work: *work}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg.work, _ = filepath.Abs(cfg.work)

	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, wl := range wls {
		var out *outcome
		var err error
		if *trace == 1 {
			out, err = runTraced(wl, cfg)
		} else {
			out, err = runUntraced(wl, cfg)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
			return 1
		}
		fmt.Printf("workload %s (seed %d, %d connections, %g s, trace %d)\n", wl.name, cfg.seed, cfg.conns, cfg.seconds, *trace)
		fmt.Printf("  daemon: ftroute %v\n", out.rep.flags)
		for _, l := range out.rep.lines {
			fmt.Println(l)
		}
		for _, w := range out.wrong {
			fmt.Printf("  WRONG answer: seed %d request %d: %s\n", cfg.seed, w.index, w.why)
		}
		if len(out.invalid) > 0 {
			for _, why := range out.invalid {
				fmt.Fprintf(os.Stderr, "perfbench: %s: invalid run: %s\n", wl.name, why)
			}
			return 3
		}
		res.Attempted += out.attempted
		res.Failed += out.failed + len(out.wrong)
		res.Correct = res.Correct && out.failed == 0 && len(out.wrong) == 0
		keys := make([]string, 0, len(out.rep.result))
		for k := range out.rep.result {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			mk := k
			if len(wls) > 1 {
				mk = wl.name + "." + k
			}
			res.Metrics[mk] = out.rep.result[k]
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
