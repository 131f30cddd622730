package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ftrouting"
	"ftrouting/serve"
)

// connWarm builds the conn-warm workload's scheme and generator.
func connWarm(t *testing.T, seed uint64) (*workload, *ftrouting.Graph, any, *generator) {
	t.Helper()
	wl, err := findWorkload("conn-warm")
	if err != nil {
		t.Fatal(err)
	}
	g := wl.graph(seed)
	scheme, err := wl.build(g, seed)
	if err != nil {
		t.Fatal(err)
	}
	return wl, g, scheme, newGenerator(wl, g, seed)
}

// recorder is a fake daemon that keeps every request body and answers
// with a fixed body after an optional per-request delay.
type recorder struct {
	mu     sync.Mutex
	bodies []string
	delay  func(n int) time.Duration
}

func (rc *recorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	b, _ := io.ReadAll(r.Body)
	rc.mu.Lock()
	n := len(rc.bodies)
	rc.bodies = append(rc.bodies, string(b))
	rc.mu.Unlock()
	if rc.delay != nil {
		time.Sleep(rc.delay(n))
	}
	io.WriteString(w, `{"results":[]}`)
}

func TestRequestMultisetSameAtOneAndTwoConnections(t *testing.T) {
	_, _, _, gen := connWarm(t, 7)
	body := func(i uint64) []byte { return encodeRequest(gen.request(i)) }
	var got [2][]string
	for k, conns := range []int{1, 2} {
		rc := &recorder{}
		srv := httptest.NewServer(rc)
		drv := newDriver(srv.URL, conns)
		runs := drv.openLoop(4000, phaseOpen, 300, bodySender(body))
		drv.close()
		srv.Close()
		for _, s := range runs {
			if s.failed() {
				t.Fatalf("%d connections: request %d failed: %v %d", conns, s.index, s.err, s.status)
			}
		}
		got[k] = rc.bodies
		slices.Sort(got[k])
	}
	if len(got[0]) != 300 || !slices.Equal(got[0], got[1]) {
		t.Fatalf("request multisets differ: %d vs %d bodies", len(got[0]), len(got[1]))
	}
	// The closed loop sends a gap-free index range, whatever the timing.
	srv := httptest.NewServer(&recorder{})
	defer srv.Close()
	drv := newDriver(srv.URL, 2)
	defer drv.close()
	runs := drv.closedLoop(100*time.Millisecond, phaseClosed, bodySender(body))
	var idx []uint64
	for _, s := range runs {
		idx = append(idx, s.index-phaseClosed)
	}
	slices.Sort(idx)
	for j, i := range idx {
		if i != uint64(j) {
			t.Fatalf("closed loop indices have a gap or repeat at %d: %d", j, i)
		}
	}
}

// flipper serves through a real in-process server and inverts the first
// answer of the flipAt-th response.
type flipper struct {
	srv    http.Handler
	mu     sync.Mutex
	n      int
	flipAt int
}

func (f *flipper) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := httptest.NewRecorder()
	f.srv.ServeHTTP(rec, r)
	body := rec.Body.String()
	f.mu.Lock()
	if f.n == f.flipAt {
		if strings.HasPrefix(body, `{"results":[true`) {
			body = strings.Replace(body, `[true`, `[false`, 1)
		} else {
			body = strings.Replace(body, `[false`, `[true`, 1)
		}
	}
	f.n++
	f.mu.Unlock()
	w.WriteHeader(rec.Code)
	io.WriteString(w, body)
}

func TestOracleFailsFlippedAnswer(t *testing.T) {
	wl, g, scheme, gen := connWarm(t, 3)
	inner, err := serve.New(scheme, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := &flipper{srv: inner, flipAt: 37}
	srv := httptest.NewServer(f)
	defer srv.Close()
	drv := newDriver(srv.URL+"/v1/"+wl.endpoint, 1)
	defer drv.close()
	runs := drv.openLoop(2000, phaseOpen, 100, bodySender(func(i uint64) []byte {
		return encodeRequest(gen.request(i))
	}))
	o := &oracle{endpoint: wl.endpoint, scheme: scheme, g: g, gen: gen}
	out := &outcome{}
	checkAnswers(o, out, 3, runs)
	if out.failed != 0 {
		t.Fatalf("%d requests failed", out.failed)
	}
	// The one-connection loop sends in index order, so the flipped
	// response is request 37 of the phase.
	if len(out.wrong) == 0 || out.wrong[0].index != phaseOpen+37 {
		t.Fatalf("oracle missed the flipped answer: %+v", out.wrong)
	}
	for _, w := range out.wrong {
		if w.index != phaseOpen+37 {
			t.Fatalf("oracle blamed request %d: %s", w.index-phaseOpen, w.why)
		}
	}
	if out.errorRate() == 0 {
		t.Fatal("error rate stayed 0 with a wrong answer")
	}

	// The unflipped server passes.
	f.mu.Lock()
	f.flipAt = -1
	f.mu.Unlock()
	runs = drv.openLoop(2000, phaseOpen, 100, bodySender(func(i uint64) []byte {
		return encodeRequest(gen.request(i))
	}))
	out = &outcome{}
	checkAnswers(o, out, 3, runs)
	if len(out.wrong) != 0 || out.failed != 0 {
		t.Fatalf("correct server flagged: %d failed, %+v", out.failed, out.wrong)
	}
}

func TestStalledServerChargedAsBacklogNotSlip(t *testing.T) {
	const stall = 150 * time.Millisecond
	rc := &recorder{delay: func(n int) time.Duration {
		if n == 20 {
			return stall
		}
		return 0
	}}
	srv := httptest.NewServer(rc)
	defer srv.Close()
	drv := newDriver(srv.URL, 1)
	defer drv.close()
	runs := drv.openLoop(1000, 0, 300, bodySender(func(uint64) []byte { return []byte(`{}`) }))
	backlog := millis(runs, backlogOf)
	if b := slices.Max(backlog); b < ms(stall)/2 {
		t.Fatalf("max backlog %.2f ms, want about the %v stall", b, stall)
	}
	slips := millis(runs, (*sent).slip)
	if p := quantile(slips, 0.99); p > ms(maxSlipP99) {
		t.Fatalf("slip p99 %.2f ms: the stall was charged to the timer", p)
	}
	// Requests due during the stall see it in their latency.
	if l := slices.Max(millis(runs, func(s *sent) (time.Duration, bool) { return s.latency(), true })); l < ms(stall)/2 {
		t.Fatalf("max latency %.2f ms hides the stall", l)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past root
		{Name: "d", Start: 12, End: 20, Parent: 1},
	}}
	self := tr.selfTimes()
	want := map[string]time.Duration{"root": 100 - 50 - 10, "a": 30 - 8, "b": 30, "c": 30, "d": 8}
	for name, w := range want {
		if got := self[name].self; got != w {
			t.Errorf("self(%s) = %d, want %d", name, got, w)
		}
	}
}

func TestRequestsArePureInSeedAndIndex(t *testing.T) {
	_, _, _, a := connWarm(t, 11)
	_, _, _, b := connWarm(t, 11)
	_, _, _, c := connWarm(t, 12)
	for i := uint64(0); i < 50; i++ {
		if !bytes.Equal(encodeRequest(a.request(i)), encodeRequest(b.request(i))) {
			t.Fatalf("request %d differs between two generators of one seed", i)
		}
	}
	if bytes.Equal(encodeRequest(a.request(0)), encodeRequest(c.request(0))) {
		t.Fatal("seeds 11 and 12 give the same first request")
	}
}

// On shard-churn every request stays inside one island, and any
// `islands` consecutive requests query every island once, so with a
// resident budget below the number of islands each request loads a shard.
func TestIslandRequestsCycleThroughIslands(t *testing.T) {
	wl, err := findWorkload("shard-churn")
	if err != nil {
		t.Fatal(err)
	}
	gen := newGenerator(wl, wl.graph(schemeSeed), 11)
	size := gen.islandSize
	seen := map[int32]bool{}
	for i := uint64(100); i < 100+uint64(wl.islands); i++ {
		b := gen.request(i)
		island := b.Pairs[0].S / size
		for _, p := range b.Pairs {
			if p.S/size != island || p.T/size != island {
				t.Fatalf("request %d: pair %v leaves island %d", i, p, island)
			}
		}
		if seen[island] {
			t.Fatalf("request %d: island %d queried twice in %d consecutive requests", i, island, wl.islands)
		}
		seen[island] = true
	}
	if wl.shardBudget >= wl.islands {
		t.Fatalf("shard budget %d holds every island", wl.shardBudget)
	}
}
