package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ftrouting"
	"ftrouting/serve"
	"ftrouting/serve/api"
)

// The traced run measures each layer from outside, by timing calls into
// its public functions. It has three parts:
//
//  1. Four open-loop phases against the daemon at the workload's rate,
//     untraced and traced in the order U T T U, each request encoded,
//     sent and decoded by the driver. Their service times give
//     trace.overhead, and the untraced one is the figure the ledger must
//     add up to.
//  2. Empty-batch POSTs to the daemon, whose round trip is the HTTP hop
//     without query work.
//  3. A shadow of the daemon's pipeline in this process, on requests of
//     the same schedule: request decode, plan (manifests only),
//     fault-context preparation, batch evaluation and response encode,
//     each a span; plus shard loads, Server.ServeHTTP in-process and
//     allocation counts.
//
// The ledger charges each layer its mean self time per request; fault
// contexts and shard loads are charged at the daemon's measured miss and
// load rates. ledger.residue_us is what the layers leave unexplained of
// the untraced service p50.

const (
	hopProbes      = 400
	allocRequests  = 64
	maxShadowReqs  = 4000
	minShadowReqs  = 16
	shadowFraction = 0.3
	// shardLoads is how many times the traced run loads every shard.
	shardLoads = 3
	planProbes = 2000
)

// clientSender encodes request s.index before the send and decodes the
// answer after it. With a tracer, each request is a span whose children
// are the encode and the decode, so its self time is the round trip.
func clientSender(gen *generator, o *oracle, tr *tracer) sender {
	return sender{
		body: func(s *sent) []byte {
			s.span = tr.begin("request", -1, s.index)
			sp := tr.begin("client.encode", s.span, s.index)
			defer tr.end(sp)
			return encodeRequest(gen.request(s.index))
		},
		handle: func(s *sent) {
			sp := tr.begin("client.decode", s.span, s.index)
			if !s.failed() {
				if _, err := o.decodeAnswers(s.body); err != nil {
					s.err = err
				}
			}
			tr.end(sp)
			tr.end(s.span)
		},
	}
}

// hop measures the round trip of an empty batch, which the daemon
// answers without touching the scheme, on one of the driver's
// connections.
func hop(c *conn, tr *tracer) ([]float64, error) {
	body := []byte(`{"pairs":[]}`)
	var out []float64
	for i := 0; i < hopProbes; i++ {
		var s sent
		sp := tr.begin("http.hop", -1, uint64(i))
		start := time.Now()
		c.roundTrip(body, &s)
		out = append(out, float64(time.Since(start))/1e3)
		tr.end(sp)
		if s.failed() {
			return nil, fmt.Errorf("empty batch: status %d: %v", s.status, s.err)
		}
	}
	return out, nil
}

// shadow replays the daemon's pipeline in-process. Monolithic workloads
// use the oracle's scheme; manifest workloads the manifest, with every
// shard loaded beforehand.
type shadow struct {
	o        *oracle
	m        *ftrouting.Manifest
	shards   map[int]*ftrouting.Shard
	contexts map[string]any
	pooled   bool
	tr       *tracer
}

// evaluator answers one prepared request's pairs.
type evaluator func(ftrouting.BatchOptions) (answers, error)

// prepare does what the daemon does before evaluating pairs: fault
// context lookup or preparation, and for manifests the plan and the
// shard loads. Contexts are kept for pooled fault sets only.
func (sh *shadow) prepare(b ftrouting.QueryBatch, req uint64, parent int) (evaluator, error) {
	canon := ftrouting.CanonicalFaults(b.Faults)
	if sh.m == nil {
		key := fmt.Sprint(canon)
		p, ok := sh.contexts[key].(prepared)
		if !ok {
			sp := sh.tr.begin("faultctx.prepare", parent, req)
			var err error
			p, err = sh.o.prepare(canon)
			sh.tr.end(sp)
			if err != nil {
				return nil, err
			}
			if sh.pooled {
				sh.contexts[key] = p
			}
		}
		return func(opts ftrouting.BatchOptions) (answers, error) {
			return p.eval(sh.o.endpoint, b.Pairs, opts)
		}, nil
	}
	sp := sh.tr.begin("plan", parent, req)
	plan, err := sh.m.PlanBatch(ftrouting.QueryBatch{Pairs: b.Pairs, Faults: canon})
	sh.tr.end(sp)
	if err != nil {
		return nil, err
	}
	ctxs := map[int]any{}
	for _, id := range plan.ShardIDs() {
		key := fmt.Sprint(id, plan.ShardFaults(id), plan.DistinctFaults())
		ctx, ok := sh.contexts[key]
		if !ok {
			sp = sh.tr.begin("faultctx.prepare", parent, req)
			ctx, err = plan.PrepareShard(sh.shards[id])
			sh.tr.end(sp)
			if err != nil {
				return nil, err
			}
			if sh.pooled {
				sh.contexts[key] = ctx
			}
		}
		ctxs[id] = ctx
	}
	return func(opts ftrouting.BatchOptions) (answers, error) {
		var a answers
		var err error
		a.conn, err = plan.ConnectedBatch(ctxs, opts)
		return a, err
	}, nil
}

// encodeAnswers renders answers as the daemon's response body.
func encodeAnswers(a answers) ([]byte, error) {
	var payload any
	switch {
	case a.conn != nil:
		payload = api.ConnectedResponse{Results: a.conn}
	case a.est != nil:
		payload = api.EstimateResponse{Estimates: a.est}
	default:
		payload = api.RouteResponse{Results: a.route}
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(payload)
	return buf.Bytes(), err
}

// decodeRequest parses a request body the way the daemon does.
func decodeRequest(body []byte) (ftrouting.QueryBatch, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req api.QueryRequest
	if err := dec.Decode(&req); err != nil {
		return ftrouting.QueryBatch{}, err
	}
	return req.Batch(), nil
}

// disconnected counts the pairs answered "not connected", "unreachable"
// or "not reached".
func (a answers) disconnected() int {
	n := 0
	for _, c := range a.conn {
		if !c {
			n++
		}
	}
	for _, e := range a.est {
		if e == ftrouting.Unreachable {
			n++
		}
	}
	for _, r := range a.route {
		if !r.Reached {
			n++
		}
	}
	return n
}

// shadowOne replays one request: decode, prepare, batch at default
// parallelism, encode, under one span; then the sequential decode
// (Parallelism 1), a second default-parallelism batch and
// Server.ServeHTTP in-process, each its own span.
func (sh *shadow) shadowOne(srv *serve.Server, body []byte, req uint64) (answers, error) {
	root := sh.tr.begin("shadow", -1, req)
	sp := sh.tr.begin("json.decode_req", root, req)
	b, err := decodeRequest(body)
	sh.tr.end(sp)
	if err != nil {
		return answers{}, err
	}
	eval, err := sh.prepare(b, req, root)
	if err != nil {
		return answers{}, err
	}
	sp = sh.tr.begin("batch", root, req)
	a, err := eval(ftrouting.BatchOptions{})
	sh.tr.end(sp)
	if err != nil {
		return answers{}, err
	}
	sp = sh.tr.begin("json.encode_resp", root, req)
	_, err = encodeAnswers(a)
	sh.tr.end(sp)
	sh.tr.end(root)
	if err != nil {
		return answers{}, err
	}

	// The fan-out comparison evaluates the now warm context twice more,
	// sequentially and at default parallelism.
	sp = sh.tr.begin("decode", -1, req)
	_, err = eval(ftrouting.BatchOptions{Parallelism: 1})
	sh.tr.end(sp)
	if err != nil {
		return answers{}, err
	}
	sp = sh.tr.begin("batch.warm", -1, req)
	_, err = eval(ftrouting.BatchOptions{})
	sh.tr.end(sp)
	if err != nil {
		return answers{}, err
	}

	sp = sh.tr.begin("serve.handler", -1, req)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+sh.o.endpoint, bytes.NewReader(body)))
	sh.tr.end(sp)
	if rec.Code != http.StatusOK {
		return answers{}, fmt.Errorf("in-process handler: %d %s", rec.Code, rec.Body.String())
	}
	return a, nil
}

// mallocs counts heap allocations made by f.
func mallocs(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// runTraced reports the per-layer metrics and the ledger.
func runTraced(wl *workload, cfg config) (*outcome, error) {
	out := &outcome{rep: newReport()}
	work := filepath.Join(cfg.work, fmt.Sprintf("%s-%d", wl.name, os.Getpid()))
	defer os.RemoveAll(work)
	tr := newTracer()
	st, err := setUp(wl, work, cfg.bin, tr)
	if err != nil {
		return nil, err
	}
	d := st.d
	defer d.stop()
	gen := newGenerator(wl, st.g, cfg.seed)
	st.scheme = nil
	sp := tr.begin("persist.load", -1, 0)
	scheme, err := openScheme(work)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	o := &oracle{endpoint: wl.endpoint, scheme: scheme, g: st.g, gen: gen}
	drv := newDriver(d.base+"/v1/"+wl.endpoint, cfg.conns)
	defer drv.close()

	warm := drv.closedLoop(warmUp, phaseWarm, clientSender(gen, o, nil))
	phaseDur := (1 - shadowFraction) / 2 * cfg.seconds
	n := int(math.Round(wl.rate * phaseDur))
	// Untraced and traced halves alternate as U T T U, so a drift of the
	// machine over the run weighs on both alike.
	var untraced, traced []*sent
	var delta statsDelta
	var cpu time.Duration
	for k, traceIt := range []bool{false, true, true, false} {
		base := uint64(k) << 32
		if traceIt {
			traced = append(traced, drv.openLoop(wl.rate, phaseTraced+base, n/2, clientSender(gen, o, tr))...)
			continue
		}
		runs, dd, dc, err := measured(d, wl.endpoint, func() []*sent {
			return drv.openLoop(wl.rate, phaseUntraced+base, n/2, clientSender(gen, o, nil))
		})
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, runs...)
		delta.add(dd)
		cpu += dc
	}
	hops, err := hop(drv.conns[0], tr)
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("daemon exit: %w", err)
	}
	out.invalid = validity(wl, delta, untraced)
	runs := append(append(append([]*sent{}, warm...), untraced...), traced...)
	checkAnswers(o, out, cfg.seed, runs)

	// The shadow pipeline, on requests of a phase of its own.
	sh := &shadow{o: o, m: st.manifest, contexts: map[string]any{}, pooled: wl.pool > 0, tr: tr}
	// The in-process server has the default shard budget, which holds
	// every shard, as the shadow does: its handler time holds no shard
	// loads, which the ledger charges separately.
	var opts serve.Options
	var srv *serve.Server
	if st.manifest != nil {
		if sh.shards, err = loadShards(st.manifest, tr); err != nil {
			return nil, err
		}
		srv, err = serve.NewSharded(st.manifest, opts)
	} else {
		srv, err = serve.New(scheme, opts)
	}
	if err != nil {
		return nil, err
	}
	var pairs, disc int
	shadowEnd := time.Now().Add(time.Duration(shadowFraction * cfg.seconds * float64(time.Second)))
	var shadowN int
	for ; shadowN < maxShadowReqs && (shadowN < minShadowReqs || time.Now().Before(shadowEnd)); shadowN++ {
		i := phaseShadow + uint64(shadowN)
		a, err := sh.shadowOne(srv, encodeRequest(gen.request(i)), i)
		if err != nil {
			return nil, fmt.Errorf("shadow request %d: %w", i, err)
		}
		pairs += a.len()
		disc += a.disconnected()
	}

	// A monolithic daemon never plans or loads shards; the shard layer is
	// timed on a one-shard-per-component copy of the same scheme instead,
	// and left out of the ledger.
	if st.manifest == nil {
		if err := probeShards(filepath.Join(work, "probe-shards"), scheme, gen, tr); err != nil {
			return nil, err
		}
	}

	// Allocation counts, untraced, on warm contexts where the workload
	// has them.
	sh.tr = nil
	var evals []evaluator
	var reqs []*http.Request
	for j := 0; j < allocRequests; j++ {
		i := phaseShadow + uint64(j)
		body := encodeRequest(gen.request(i))
		eval, err := sh.prepare(gen.request(i), i, -1)
		if err != nil {
			return nil, err
		}
		evals = append(evals, eval)
		reqs = append(reqs, httptest.NewRequest(http.MethodPost, "/v1/"+wl.endpoint, bytes.NewReader(body)))
	}
	decodeAllocs := mallocs(func() {
		for _, eval := range evals {
			eval(ftrouting.BatchOptions{Parallelism: 1})
		}
	})
	recs := make([]*httptest.ResponseRecorder, len(reqs))
	for j := range recs {
		recs[j] = httptest.NewRecorder()
	}
	serveAllocs := mallocs(func() {
		for j, r := range reqs {
			srv.ServeHTTP(recs[j], r)
		}
	})

	tracePath := filepath.Join(cfg.work, fmt.Sprintf("trace-%s-seed%d.jsonl", wl.name, cfg.seed))
	if err := tr.write(tracePath); err != nil {
		return nil, err
	}

	self := tr.selfTimes()
	r := out.rep
	r.flags = d.args
	secs := func(name string) float64 { return self[name].meanMicros() / 1e6 }
	r.put("build.s", secs("build"), "s", "")
	r.put("persist.save_s", secs("persist.save"), "s", "")
	r.put("persist.load_s", secs("persist.load"), "s", "facade Open of the scheme file")
	r.put("persist.bytes", float64(st.bytes), "bytes", "")
	probe := ""
	if st.manifest == nil {
		probe = ", sharded copy not served"
	}
	r.put("shard.load_ms", self["shard.load"].meanMicros()/1e3, "ms", fmt.Sprintf("%d loads%s", self["shard.load"].count, probe))
	loadsPerReq := delta.perRequest(float64(delta.loads))
	r.put("shard.loads_per_req", loadsPerReq, "count", "daemon")
	r.put("plan.us_per_req", self["plan"].meanMicros(), "us", fmt.Sprintf("%d plans%s", self["plan"].count, probe))
	r.put("faultctx.prepare_us", self["faultctx.prepare"].meanMicros(), "us", fmt.Sprintf("%d prepares", self["faultctx.prepare"].count))
	r.put("faultctx.hit_ratio", delta.hitRatio(), "ratio", fmt.Sprintf("daemon: %d hits, %d misses", delta.hits, delta.misses))
	decodeUs := self["decode"].meanMicros()
	batchUs := self["batch"].meanMicros()
	r.put("decode.us_per_pair", decodeUs/pairsPerRequest, "us", "Parallelism 1")
	r.put("decode.allocs_per_pair", float64(decodeAllocs)/float64(allocRequests*pairsPerRequest), "count", "")
	r.put("decode.disconnected_share", float64(disc)/float64(max(pairs, 1)), "ratio", fmt.Sprintf("%d pairs", pairs))
	r.put("batch.us_per_req", batchUs, "us", "default Parallelism")
	warmUs := self["batch.warm"].meanMicros()
	r.info("batch.warm_us_per_req", warmUs, "us", "default Parallelism, after the sequential decode")
	r.put("batch.fanout_gain", decodeUs/math.Max(warmUs, 1e-9), "ratio", "Parallelism 1 time / default time, warm context")
	r.put("json.decode_req_us", self["json.decode_req"].meanMicros(), "us", "")
	r.put("json.encode_resp_us", self["json.encode_resp"].meanMicros(), "us", "")
	var respBytes []float64
	for _, s := range untraced {
		respBytes = append(respBytes, float64(len(s.body)))
	}
	r.put("json.resp_bytes", mean(respBytes), "bytes", "")
	handlerUs := self["serve.handler"].meanMicros()
	r.put("serve.handler_us", handlerUs, "us", "Server.ServeHTTP in-process, observability off")
	r.put("serve.allocs_per_req", float64(serveAllocs)/allocRequests, "count", "")
	hopUs := median(hops)
	r.put("http.hop_us", hopUs, "us", fmt.Sprintf("median of %d empty-batch round trips", len(hops)))
	r.put("server.cpu_us_per_req", delta.perRequest(float64(cpu)/1e3), "us", "daemon utime+stime, untraced phase")
	// A monolithic daemon validates the fault set inside its context
	// stage; a sharded one in a validate stage of its own, which
	// server.stage_context_us includes so that the figure means the same
	// in both modes.
	r.put("server.stage_decode_us", delta.stageMicros("decode"), "us", "daemon /v1/stats")
	r.put("server.stage_context_us", delta.stageMicros("validate")+delta.stageMicros("context"), "us",
		fmt.Sprintf("daemon /v1/stats, of which validate %.2f us", delta.stageMicros("validate")))
	r.put("server.stage_eval_us", delta.stageMicros("eval"), "us", "daemon /v1/stats")
	slips := millis(untraced, (*sent).slip)
	r.put("loadgen.slip_p50_ms", quantile(slips, 0.5), "ms", fmt.Sprintf("%d slept sends", len(slips)))
	r.put("loadgen.slip_p99_ms", quantile(slips, 0.99), "ms", "")
	r.put("loadgen.backlog_p99_ms", quantile(millis(untraced, backlogOf), 0.99), "ms", "")

	planUs := 0.0
	if st.manifest != nil {
		planUs = self["plan"].meanMicros()
	}
	svcU := quantile(millis(untraced, serviceOf), 0.5) * 1e3
	svcT := quantile(millis(traced, serviceOf), 0.5) * 1e3
	perReq := func(x float64) float64 { return delta.perRequest(x) }
	ledger := []struct {
		layer string
		us    float64
	}{
		{"driver (encode+decode)", self["client.encode"].meanMicros() + self["client.decode"].meanMicros()},
		{"http.hop", hopUs},
		{"json.decode_req", self["json.decode_req"].meanMicros()},
		{"plan", planUs},
		{"shard.load × loads/req", self["shard.load"].meanMicros() * loadsPerReq},
		{"faultctx.prepare × misses/req", self["faultctx.prepare"].meanMicros() * perReq(float64(delta.misses))},
		{"batch", batchUs},
		{"json.encode_resp", self["json.encode_resp"].meanMicros()},
		// What Server.ServeHTTP spends beyond the pipeline it wraps.
		{"serve.handler self", handlerUs - self["shadow"].meanTotalMicros()},
	}
	sum := 0.0
	for _, l := range ledger {
		sum += l.us
		r.info("ledger "+l.layer, l.us, "us", fmt.Sprintf("%.1f%% of untraced service p50", 100*l.us/svcU))
	}
	r.info("ledger.sum_us", sum, "us", "")
	r.info("service_p50_us untraced", svcU, "us", fmt.Sprintf("%d requests", len(untraced)))
	r.info("service_p50_us traced", svcT, "us", fmt.Sprintf("%d requests", len(traced)))
	r.put("ledger.residue_us", svcU-sum, "us", "untraced service p50 - ledger sum")
	r.put("trace.overhead", svcT/svcU, "ratio", "traced / untraced service p50")
	r.info("shadow requests", float64(shadowN), "count", "spans in "+tracePath)
	return out, nil
}

// loadShards loads every shard of m shardLoads times, each load a span,
// and returns the shards of the last round.
func loadShards(m *ftrouting.Manifest, tr *tracer) (map[int]*ftrouting.Shard, error) {
	shards := map[int]*ftrouting.Shard{}
	for k := 0; k < shardLoads; k++ {
		for id := 0; id < m.NumShards(); id++ {
			sp := tr.begin("shard.load", -1, 0)
			shard, err := m.LoadShard(id)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			shards[id] = shard
		}
	}
	return shards, nil
}

// probeShards shards scheme under dir, loads every shard and plans the
// shadow phase's first planProbes requests, each call a span.
func probeShards(dir string, scheme any, gen *generator, tr *tracer) error {
	m, err := saveSharded(dir, scheme)
	if err != nil {
		return err
	}
	if _, err := loadShards(m, tr); err != nil {
		return err
	}
	for j := 0; j < planProbes; j++ {
		i := phaseShadow + uint64(j)
		b := gen.request(i)
		sp := tr.begin("plan", -1, i)
		_, err := m.PlanBatch(ftrouting.QueryBatch{Pairs: b.Pairs, Faults: ftrouting.CanonicalFaults(b.Faults)})
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

func serviceOf(s *sent) (time.Duration, bool) { return s.service(), true }

// measured runs a phase and returns its records with the daemon's
// counter and CPU-time deltas over it.
func measured(d *daemon, endpoint string, phase func() []*sent) ([]*sent, statsDelta, time.Duration, error) {
	ctx := context.Background()
	s0, err := d.stats(ctx)
	if err != nil {
		return nil, statsDelta{}, 0, err
	}
	p0, err := d.sample()
	if err != nil {
		return nil, statsDelta{}, 0, err
	}
	runs := phase()
	s1, err := d.stats(ctx)
	if err != nil {
		return nil, statsDelta{}, 0, err
	}
	p1, err := d.sample()
	if err != nil {
		return nil, statsDelta{}, 0, err
	}
	return runs, diffStats(s0, s1, endpoint), p1.cpu - p0.cpu, nil
}
