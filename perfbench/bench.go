package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"ftrouting"
	"ftrouting/serve/api"
)

// Phases of a run use disjoint request-index ranges, so request i of
// every phase is a pure function of (seed, phase, i).
const (
	phaseWarm uint64 = (iota + 1) << 40
	phaseClosed
	phaseOpen
	phaseUntraced
	phaseTraced
	phaseShadow
)

const (
	warmUp = time.Second
	// Set-up runs at least minSetups times, and again while less than
	// setupSpan has passed, up to maxSetups times; setup_s is the median.
	// Short set-ups thus get more samples.
	minSetups = 5
	maxSetups = 15
	setupSpan = 1500 * time.Millisecond
	// cycles is how many closed-loop and open-loop segment pairs an
	// untraced run alternates through.
	cycles = 20
	// closedShare is the part of --seconds spent in the closed loop; the
	// open loop gets the rest.
	closedShare = 0.4
	// quietSteal is the largest share of the machine's CPU time the
	// hypervisor may steal in a cycle that counts as quiet.
	quietSteal = 0.05
	// truthRequests is the size of the seeded sample checked against
	// exact distances.
	truthRequests = 48
	// Slip above these bounds means the pacer could not keep the
	// schedule, so latency at the offered rate was not measured: the run
	// is invalid rather than slow. A pacer on Go timers slips about 0.8 ms
	// at p50; vCPU preemptions of a busy shared host reach about 13 ms at
	// p99.
	maxSlipP50 = 1 * time.Millisecond
	maxSlipP99 = 25 * time.Millisecond
)

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds float64
	conns   int
	bin     string
	work    string
}

// outcome is the result of one workload run.
type outcome struct {
	rep       *report
	attempted int
	failed    int
	wrong     []wrongAnswer
	invalid   []string
}

// encodeRequest renders a batch as the daemon's request body.
func encodeRequest(b ftrouting.QueryBatch) []byte {
	body, err := json.Marshal(api.FromBatch(b))
	if err != nil {
		panic(err) // pairs and edge ids always marshal
	}
	return body
}

// statsDelta is the change of the daemon's counters over a phase.
type statsDelta struct {
	requests, hits, misses, loads uint64
	// stageNanos and stageCount are per-stage totals.
	stageNanos map[string]float64
	stageCount map[string]uint64
}

func diffStats(a, b *api.StatsResponse, endpoint string) statsDelta {
	d := statsDelta{
		requests:   b.Endpoints[endpoint].Requests - a.Endpoints[endpoint].Requests,
		hits:       b.Cache.Hits - a.Cache.Hits,
		misses:     b.Cache.Misses - a.Cache.Misses,
		stageNanos: map[string]float64{},
		stageCount: map[string]uint64{},
	}
	if a.Shards != nil && b.Shards != nil {
		d.loads = b.Shards.Loads - a.Shards.Loads
	}
	for name, sb := range b.Stages {
		sa := a.Stages[name]
		d.stageCount[name] = sb.Count - sa.Count
		d.stageNanos[name] = float64(sb.MeanNanos)*float64(sb.Count) - float64(sa.MeanNanos)*float64(sa.Count)
	}
	return d
}

// add accumulates another phase's delta.
func (d *statsDelta) add(o statsDelta) {
	d.requests += o.requests
	d.hits += o.hits
	d.misses += o.misses
	d.loads += o.loads
	if d.stageNanos == nil {
		d.stageNanos, d.stageCount = map[string]float64{}, map[string]uint64{}
	}
	for name, v := range o.stageNanos {
		d.stageNanos[name] += v
		d.stageCount[name] += o.stageCount[name]
	}
}

// stageMicros is the daemon's mean time in one serving stage.
func (d statsDelta) stageMicros(name string) float64 {
	if d.stageCount[name] == 0 {
		return 0
	}
	return d.stageNanos[name] / float64(d.stageCount[name]) / 1e3
}

func (d statsDelta) hitRatio() float64 {
	if d.hits+d.misses == 0 {
		return 0
	}
	return float64(d.hits) / float64(d.hits+d.misses)
}

func (d statsDelta) perRequest(x float64) float64 {
	if d.requests == 0 {
		return 0
	}
	return x / float64(d.requests)
}

// validity checks that a phase exercised what the workload exists for.
func validity(wl *workload, d statsDelta, open []*sent) []string {
	var bad []string
	switch {
	case wl.name == "conn-warm" && d.hitRatio() < 0.95:
		bad = append(bad, fmt.Sprintf("fault-context hit ratio %.3f, want ≈1", d.hitRatio()))
	case wl.name == "dist-fault-churn" && d.hitRatio() > 0.05:
		bad = append(bad, fmt.Sprintf("fault-context hit ratio %.3f, want ≈0", d.hitRatio()))
	case wl.shardBudget > 0 && d.loads == 0:
		bad = append(bad, "no shard loads under the shard budget")
	}
	slips := millis(open, (*sent).slip)
	if p := quantile(slips, 0.5); p > ms(maxSlipP50) {
		bad = append(bad, fmt.Sprintf("pacer slip p50 %.3f ms exceeds %v", p, maxSlipP50))
	}
	if p := quantile(slips, 0.99); p > ms(maxSlipP99) {
		bad = append(bad, fmt.Sprintf("pacer slip p99 %.3f ms exceeds %v", p, maxSlipP99))
	}
	return bad
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// openBodies pre-encodes n requests of a phase, so the pacer only sends.
func openBodies(gen *generator, base uint64, n int) [][]byte {
	bodies := make([][]byte, n)
	for j := range bodies {
		bodies[j] = encodeRequest(gen.request(base + uint64(j)))
	}
	return bodies
}

// checkAnswers runs the oracle over every response and counts failures.
func checkAnswers(o *oracle, out *outcome, seed uint64, runs []*sent) {
	for _, s := range runs {
		out.attempted++
		if s.failed() {
			out.failed++
		}
	}
	out.wrong = append(out.wrong, o.check(runs, runtime.NumCPU(), o.gen.pool != nil)...)
	out.wrong = append(out.wrong, o.truthSample(runs, truthRequests, seed)...)
}

// runUntraced measures the end-to-end metrics: set-up time (median of
// several set-ups), closed-loop throughput, latency at the offered
// rate, and the daemon's peak RSS.
func runUntraced(wl *workload, cfg config) (*outcome, error) {
	out := &outcome{rep: newReport()}
	work := filepath.Join(cfg.work, fmt.Sprintf("%s-%d", wl.name, os.Getpid()))
	defer os.RemoveAll(work)

	var setups []float64
	var st *stand
	for start := time.Now(); ; {
		var err error
		if st, err = setUp(wl, work, cfg.bin, nil); err != nil {
			return nil, err
		}
		setups = append(setups, st.setup.Seconds())
		if n := len(setups); n >= maxSetups || (n >= minSetups && time.Since(start) >= setupSpan) {
			break
		}
		if err := st.d.stop(); err != nil {
			return nil, fmt.Errorf("daemon exit: %w", err)
		}
	}
	d := st.d
	defer d.stop()
	gen := newGenerator(wl, st.g, cfg.seed)
	drv := newDriver(d.base+"/v1/"+wl.endpoint, cfg.conns)
	defer drv.close()
	send := bodySender(func(i uint64) []byte { return encodeRequest(gen.request(i)) })
	// Closed and open segments alternate, so both phases sample the
	// whole run and a passing stall of the shared machine weighs on each
	// of them alike.
	closedDur := time.Duration(closedShare * cfg.seconds / cycles * float64(time.Second))
	openDur := time.Duration((1 - closedShare) * cfg.seconds / cycles * float64(time.Second))
	nOpen := int(math.Round(wl.rate * openDur.Seconds()))

	warm := drv.closedLoop(warmUp, phaseWarm, send)
	bodies := make([][][]byte, cycles)
	for c := range bodies {
		bodies[c] = openBodies(gen, phaseOpen+uint64(c)<<32, nOpen)
	}
	var cycs []cycle
	var closedDelta, delta statsDelta
	var closedCPU time.Duration
	for c := 0; c < cycles; c++ {
		var cy cycle
		t0, err := readCPU()
		if err != nil {
			return nil, err
		}
		var dd statsDelta
		var dc time.Duration
		cy.closed, dd, dc, err = measured(d, wl.endpoint, func() []*sent {
			return drv.closedLoop(closedDur, phaseClosed+uint64(c)<<32, send)
		})
		if err != nil {
			return nil, err
		}
		closedDelta.add(dd)
		closedCPU += dc
		t1, err := readCPU()
		if err != nil {
			return nil, err
		}
		cy.closedTicks = t1.since(t0)
		base := phaseOpen + uint64(c)<<32
		cy.open, dd, _, err = measured(d, wl.endpoint, func() []*sent {
			return drv.openLoop(wl.rate, base, nOpen,
				bodySender(func(i uint64) []byte { return bodies[c][i-base] }))
		})
		if err != nil {
			return nil, err
		}
		delta.add(dd)
		t2, err := readCPU()
		if err != nil {
			return nil, err
		}
		cy.steal = t2.since(t0).stealShare()
		cycs = append(cycs, cy)
	}
	delta.add(closedDelta)
	var closed, open []*sent
	for _, cy := range cycs {
		closed = append(closed, cy.closed...)
		open = append(open, cy.open...)
	}
	proc, err := d.sample()
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("daemon exit: %w", err)
	}
	out.invalid = validity(wl, delta, open)

	// The reference is the saved file, loaded through the facade; the
	// built scheme is dropped first so that only one copy is resident.
	st.scheme = nil
	o := &oracle{endpoint: wl.endpoint, g: st.g, gen: gen}
	if o.scheme, err = openScheme(work); err != nil {
		return nil, err
	}
	checkAnswers(o, out, cfg.seed, append(append(append([]*sent{}, warm...), closed...), open...))

	r := out.rep
	r.put("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups)))
	// Throughput and latency are read over the quiet cycles, those in
	// which the hypervisor stole little CPU time: on a shared host,
	// neighbours take the vCPUs away for spells of 30 s to minutes, which
	// moved both figures by up to 40% between runs of the same code.
	// Throughput is also counted per second of CPU time the hypervisor
	// left to the machine: the closed loop keeps the vCPUs busy, so it
	// scales with that time.
	quiet := quietest(cycs)
	var done int
	var span time.Duration
	var ticks cpuTicks
	var quietOpen []*sent
	for _, cy := range quiet {
		n, sp := completed(cy.closed)
		done += n
		span += sp
		ticks = ticks.add(cy.closedTicks)
		quietOpen = append(quietOpen, cy.open...)
	}
	which := fmt.Sprintf("the %d quietest of %d cycles (steal %.3f; %.3f over all)",
		len(quiet), cycles, meanSteal(quiet), meanSteal(cycs))
	wall := float64(done) / span.Seconds() * pairsPerRequest
	r.put("max_pairs_per_s", wall/(1-ticks.stealShare()), "pairs/s",
		fmt.Sprintf("closed loop, %d connections, %d requests in %s, per unstolen second", cfg.conns, done, which))
	r.info("max_pairs_per_s.wall", wall, "pairs/s", fmt.Sprintf("the same per wall-clock second; %.3f of the CPU time stolen", ticks.stealShare()))
	lat := millis(quietOpen, func(s *sent) (time.Duration, bool) { return s.latency(), true })
	r.put("p50_ms", quantile(lat, 0.5), "ms", fmt.Sprintf("%d requests at %.0f req/s in %s", len(lat), wl.rate, which))
	// The tail is printed but not bounded: at these rates it is set by
	// millisecond-long vCPU preemptions of the shared host, and it moved
	// 1–11 ms between consecutive runs of the same code.
	r.info("p90_ms", quantile(lat, 0.90), "ms", "")
	r.info("p99_ms", quantile(lat, 0.99), "ms", "")
	r.put("server_rss_mb", float64(proc.hwmKiB)/1024, "MB", "VmHWM")
	r.info("server.cpu_us_per_pair", closedDelta.perRequest(float64(closedCPU)/1e3)/pairsPerRequest, "us", "daemon utime+stime, closed loop")
	r.info("host.steal_share", meanSteal(cycs), "ratio", "stolen / (stolen + busy) CPU time of the machine, mean over cycles")
	r.info("error_rate", out.errorRate(), "ratio", fmt.Sprintf("%d failed + %d wrong of %d", out.failed, len(out.wrong), out.attempted))
	svc := millis(open, func(s *sent) (time.Duration, bool) { return s.service(), true })
	r.info("service_p50_ms", quantile(svc, 0.5), "ms", "send to response, open loop")
	slips := millis(open, (*sent).slip)
	r.info("loadgen.slip_p50_ms", quantile(slips, 0.5), "ms", fmt.Sprintf("%d slept sends", len(slips)))
	r.info("loadgen.slip_p99_ms", quantile(slips, 0.99), "ms", "")
	r.info("loadgen.backlog_p99_ms", quantile(millis(open, backlogOf), 0.99), "ms", "")
	r.info("faultctx.hit_ratio", delta.hitRatio(), "ratio", fmt.Sprintf("%d hits, %d misses", delta.hits, delta.misses))
	r.info("shard.loads_per_req", delta.perRequest(float64(delta.loads)), "count", "")
	r.flags = d.args
	return out, nil
}

// cycle is the record of one closed-loop and one open-loop segment, and
// the share of the machine's CPU time the hypervisor stole during them.
type cycle struct {
	closed, open []*sent
	// closedTicks is the machine's CPU time during the closed-loop
	// segment.
	closedTicks cpuTicks
	steal       float64
}

// completed is the number of successful responses of a closed-loop
// segment and the time until its last one.
func completed(runs []*sent) (int, time.Duration) {
	var n int
	var last int64
	for _, s := range runs {
		if !s.failed() {
			n++
			last = max(last, s.done)
		}
	}
	return n, time.Duration(last)
}

// quietest returns, in run order, the cycles of cycs in which the
// hypervisor stole at most quietSteal of the CPU time, or the quarter
// with the least steal if fewer cycles were that quiet. Every quiet
// cycle counts, so a quiet run is averaged over all of it: per-cycle
// latency moved by ±10% with no steal at all.
func quietest(cycs []cycle) []cycle {
	idx := make([]int, len(cycs))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(cycs[a].steal, cycs[b].steal) })
	n := max(len(cycs)/4, 1)
	for n < len(idx) && cycs[idx[n]].steal <= quietSteal {
		n++
	}
	idx = idx[:n]
	slices.Sort(idx)
	out := make([]cycle, len(idx))
	for k, i := range idx {
		out[k] = cycs[i]
	}
	return out
}

func meanSteal(cycs []cycle) float64 {
	sum := 0.0
	for _, cy := range cycs {
		sum += cy.steal
	}
	return sum / float64(max(len(cycs), 1))
}

func backlogOf(s *sent) (time.Duration, bool) { return s.backlog(), true }

func (o *outcome) errorRate() float64 {
	return float64(o.failed+len(o.wrong)) / float64(max(o.attempted, 1))
}

// openScheme loads the saved monolithic scheme through the facade, the
// reference the oracle compares served answers with.
func openScheme(work string) (any, error) {
	src, err := ftrouting.Open(schemeFile(work))
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", schemeFile(work), err)
	}
	return src.Scheme(), nil
}
