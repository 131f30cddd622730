// Command benchcmp is the benchmark-regression gate of the bench-compare
// CI job: it parses two `go test -bench` outputs (base and head, several
// repetitions each), compares every benchmark whose name matches
// -filter with a two-sided Mann-Whitney U test, and exits non-zero only
// when a benchmark regressed both statistically significantly (p < alpha)
// and by more than -threshold percent in median ns/op — or when its
// allocs/op regressed (same rule; a zero-alloc baseline growing any
// allocation fails unconditionally, guarding the allocation-free warm
// path). Benchmarks present on only one side (new or deleted) are
// reported and skipped, so adding a benchmark never fails the gate.
//
// Usage:
//
//	go test -run=NONE -bench=Query -benchtime=100ms ./... >> head.txt
//	(in a checkout of base) same command >> base.txt
//	repeat both, alternating, for five rounds; then
//	benchcmp -base base.txt -head head.txt -filter Query -threshold 25
//
// It is a self-contained benchstat-style comparator so the gate works
// offline and hermetically; CI additionally runs benchstat for the
// human-readable table.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	base := flag.String("base", "", "benchmark output of the base revision")
	head := flag.String("head", "", "benchmark output of the head revision")
	filter := flag.String("filter", "Query", "regexp of benchmark names the gate applies to")
	threshold := flag.Float64("threshold", 25, "regression gate in percent of median ns/op")
	alpha := flag.Float64("alpha", 0.05, "significance level of the Mann-Whitney test")
	flag.Parse()
	if *base == "" || *head == "" {
		fmt.Fprintln(os.Stderr, "benchcmp: -base and -head are required")
		os.Exit(2)
	}
	baseRes, err := parseFile(*base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	headRes, err := parseFile(*head)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	re, err := regexp.Compile(*filter)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp: bad -filter:", err)
		os.Exit(2)
	}
	report, failed := compare(baseRes, headRes, re, *threshold, *alpha)
	fmt.Print(report)
	if failed {
		os.Exit(1)
	}
}

// sample holds one benchmark's measurement series: ns/op from every
// repetition, and allocs/op from the repetitions that report it (emitted
// by b.ReportAllocs or -benchmem).
type sample struct {
	ns     []float64
	allocs []float64
}

// parseFile reads one `go test -bench` output into name -> samples.
// The trailing -N GOMAXPROCS suffix is stripped so runs from differently
// sized machines still line up.
func parseFile(path string) (map[string]*sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f)
}

var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parse extracts ns/op and allocs/op samples from benchmark result lines.
func parse(r io.Reader) (map[string]*sample, error) {
	out := make(map[string]*sample)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// Benchmark lines read: Name iterations value ns/op [more metrics].
		var ns, allocs float64
		foundNs, foundAllocs := false, false
		for i := 2; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			switch fields[i+1] {
			case "ns/op":
				if err != nil {
					return nil, fmt.Errorf("bad ns/op value %q in line %q", fields[i], sc.Text())
				}
				ns, foundNs = v, true
			case "allocs/op":
				if err != nil {
					return nil, fmt.Errorf("bad allocs/op value %q in line %q", fields[i], sc.Text())
				}
				allocs, foundAllocs = v, true
			}
		}
		if !foundNs {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(fields[0], "")
		s := out[name]
		if s == nil {
			s = &sample{}
			out[name] = s
		}
		s.ns = append(s.ns, ns)
		if foundAllocs {
			s.allocs = append(s.allocs, allocs)
		}
	}
	return out, sc.Err()
}

// compare renders the comparison table and reports whether any gated
// benchmark fails, on either median ns/op or median allocs/op.
func compare(base, head map[string]*sample, filter *regexp.Regexp, thresholdPct, alpha float64) (string, bool) {
	var names []string
	for name := range base {
		if _, ok := head[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var sb strings.Builder
	var failures []string
	fmt.Fprintf(&sb, "%-60s %14s %14s %8s %8s %9s %9s  %s\n", "benchmark", "base med ns/op", "head med ns/op", "delta", "p", "base a/op", "head a/op", "verdict")
	for _, name := range names {
		b, h := base[name], head[name]
		mb, mh := median(b.ns), median(h.ns)
		delta := 0.0
		if mb != 0 {
			delta = (mh - mb) / mb * 100
		}
		p := mannWhitney(b.ns, h.ns)
		gated := filter.MatchString(name)
		verdict := "ok"
		switch {
		case !gated:
			verdict = "ungated"
		case p < alpha && delta > thresholdPct:
			verdict = "REGRESSION"
			failures = append(failures, fmt.Sprintf("%s: median %+.1f%% (p=%.3f)", name, delta, p))
		case p < alpha && delta < -thresholdPct:
			verdict = "improved"
		case p >= alpha:
			verdict = "~"
		}
		// Allocation gate: compared only when both sides report allocs/op.
		// Allocation counts are near-deterministic, so a zero-alloc
		// benchmark growing any allocation fails outright; nonzero
		// baselines get the same significance + threshold rule as ns/op.
		allocCol := [2]string{"-", "-"}
		if len(b.allocs) > 0 && len(h.allocs) > 0 {
			amb, amh := median(b.allocs), median(h.allocs)
			allocCol = [2]string{fmt.Sprintf("%.0f", amb), fmt.Sprintf("%.0f", amh)}
			if gated && amh > amb {
				if amb == 0 {
					verdict = "REGRESSION(allocs)"
					failures = append(failures, fmt.Sprintf("%s: allocs/op 0 -> %.0f (zero-alloc gate)", name, amh))
				} else if pA := mannWhitney(b.allocs, h.allocs); pA < alpha && (amh-amb)/amb*100 > thresholdPct {
					verdict = "REGRESSION(allocs)"
					failures = append(failures, fmt.Sprintf("%s: median allocs/op %.0f -> %.0f (p=%.3f)", name, amb, amh, pA))
				}
			}
		}
		fmt.Fprintf(&sb, "%-60s %14.0f %14.0f %+7.1f%% %8.3f %9s %9s  %s\n", name, mb, mh, delta, p, allocCol[0], allocCol[1], verdict)
	}
	for name := range head {
		if _, ok := base[name]; !ok {
			fmt.Fprintf(&sb, "%-60s new in head, skipped\n", name)
		}
	}
	for name := range base {
		if _, ok := head[name]; !ok {
			fmt.Fprintf(&sb, "%-60s missing in head, skipped\n", name)
		}
	}
	if len(failures) > 0 {
		fmt.Fprintf(&sb, "\nFAIL: %d significant regression(s) beyond %.0f%%:\n", len(failures), thresholdPct)
		for _, f := range failures {
			fmt.Fprintf(&sb, "  %s\n", f)
		}
		return sb.String(), true
	}
	fmt.Fprintf(&sb, "\nOK: no significant regression beyond %.0f%% in gated benchmarks\n", thresholdPct)
	return sb.String(), false
}

// median returns the middle value of a sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mannWhitney returns the two-sided p-value of the Mann-Whitney U test on
// the two samples: exact by permutation enumeration when the sample sizes
// allow it (the -count=5 CI runs give C(10,5)=252 arrangements), normal
// approximation with tie correction otherwise. p = 1 means no evidence of
// a shift (including degenerate all-equal samples).
func mannWhitney(a, b []float64) float64 {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return 1
	}
	ranks, tieAdj := rank(append(append([]float64(nil), a...), b...))
	var ra float64 // rank sum of sample a
	for i := 0; i < n; i++ {
		ra += ranks[i]
	}
	if binomial(n+m, n) <= 1e6 {
		return exactP(ranks, n, ra)
	}
	// Normal approximation with tie correction.
	nm := float64(n * m)
	mean := float64(n) * float64(n+m+1) / 2
	nTot := float64(n + m)
	variance := nm / 12 * (nTot + 1 - tieAdj/(nTot*(nTot-1)))
	if variance <= 0 {
		return 1
	}
	z := math.Abs(ra-mean) / math.Sqrt(variance)
	return math.Erfc(z / math.Sqrt2)
}

// rank assigns average ranks (ties shared) and returns the tie-correction
// term sum(t^3 - t) over tie groups.
func rank(xs []float64) (ranks []float64, tieAdj float64) {
	type kv struct {
		v float64
		i int
	}
	s := make([]kv, len(xs))
	for i, v := range xs {
		s[i] = kv{v, i}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].v < s[j].v })
	ranks = make([]float64, len(xs))
	for i := 0; i < len(s); {
		j := i
		for j < len(s) && s[j].v == s[i].v {
			j++
		}
		avg := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[s[k].i] = avg
		}
		t := float64(j - i)
		tieAdj += t*t*t - t
		i = j
	}
	return ranks, tieAdj
}

// exactP enumerates every n-subset of the combined ranks and returns the
// two-sided tail probability of a rank sum at least as extreme as ra.
func exactP(ranks []float64, n int, ra float64) float64 {
	total := len(ranks)
	mean := float64(n) * float64(total+1) / 2
	dev := math.Abs(ra - mean)
	var count, extreme int
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for {
		var sum float64
		for _, i := range idx {
			sum += ranks[i]
		}
		count++
		// Tolerance keeps average-rank arithmetic (x.5 halves) exact.
		if math.Abs(sum-mean) >= dev-1e-9 {
			extreme++
		}
		// Next combination in lexicographic order.
		i := n - 1
		for i >= 0 && idx[i] == total-n+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < n; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	return float64(extreme) / float64(count)
}

// binomial returns C(n, k) as a float (overflow-safe for the size check).
func binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	r := 1.0
	for i := 1; i <= k; i++ {
		r = r * float64(n-k+i) / float64(i)
	}
	return r
}
