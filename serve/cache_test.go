package serve

// Unit tests of the fault-context LRU, plus the concurrency test: hammer
// the server from GOMAXPROCS goroutines with overlapping fault sets under
// -race, asserting the hit/miss counters stay consistent and eviction
// never serves a context prepared for a different fault set.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ftrouting"
	"ftrouting/serve/api"
)

func TestFaultKey(t *testing.T) {
	cases := []struct {
		in   []ftrouting.EdgeID
		want string
	}{
		{nil, ""},
		{[]ftrouting.EdgeID{5}, "5"},
		{[]ftrouting.EdgeID{1, 3, 12}, "1,3,12"},
	}
	for _, c := range cases {
		if got := faultKey(c.in); got != c.want {
			t.Fatalf("faultKey(%v) = %q, want %q", c.in, got, c.want)
		}
	}
	// Distinct canonical sets must map to distinct keys, including ones a
	// naive concatenation would alias (1,23 vs 12,3).
	if faultKey([]ftrouting.EdgeID{1, 23}) == faultKey([]ftrouting.EdgeID{12, 3}) {
		t.Fatal("key aliases distinct fault sets")
	}
}

// prepCounter is a preparer that records which fault sets it built.
type prepCounter struct {
	mu    sync.Mutex
	calls []string
}

func (p *prepCounter) prepare(canon []ftrouting.EdgeID) func() (any, error) {
	return func() (any, error) {
		p.mu.Lock()
		defer p.mu.Unlock()
		key := faultKey(canon)
		p.calls = append(p.calls, key)
		return "ctx:" + key, nil
	}
}

func TestContextCacheLRU(t *testing.T) {
	c := newContextCache(2)
	p := &prepCounter{}
	get := func(ids ...ftrouting.EdgeID) string {
		t.Helper()
		v, _, err := c.get(faultKey(ids), p.prepare(ids))
		if err != nil {
			t.Fatal(err)
		}
		return v.(string)
	}

	// Fill: A, B. Hit A (making B least recent), insert C: B evicts.
	if got := get(1); got != "ctx:1" {
		t.Fatalf("got %q", got)
	}
	get(2)
	get(1) // hit, refreshes A
	get(3) // evicts B
	get(1) // still cached
	get(2) // re-prepared
	st := c.stats()
	if st.Hits != 2 || st.Misses != 4 || st.Evictions != 2 || st.Size != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if want := []string{"1", "2", "3", "2"}; !reflect.DeepEqual(p.calls, want) {
		t.Fatalf("prepare calls %v, want %v", p.calls, want)
	}
}

func TestContextCacheDisabled(t *testing.T) {
	c := newContextCache(-1)
	p := &prepCounter{}
	for i := 0; i < 3; i++ {
		if _, _, err := c.get("7", p.prepare([]ftrouting.EdgeID{7})); err != nil {
			t.Fatal(err)
		}
	}
	st := c.stats()
	if st.Hits != 0 || st.Misses != 3 || st.Size != 0 {
		t.Fatalf("disabled cache stats = %+v", st)
	}
	if len(p.calls) != 3 {
		t.Fatalf("disabled cache prepared %d times, want 3", len(p.calls))
	}
}

func TestContextCacheErrorNotCached(t *testing.T) {
	c := newContextCache(4)
	fail := errors.New("invalid fault set")
	prepared := 0
	prep := func() (any, error) {
		prepared++
		return nil, fail
	}
	for i := 0; i < 2; i++ {
		if _, _, err := c.get("1", prep); !errors.Is(err, fail) {
			t.Fatalf("got %v", err)
		}
	}
	// A failed preparation holds no slot and re-runs on retry.
	if prepared != 2 {
		t.Fatalf("prepared %d times, want 2", prepared)
	}
	if st := c.stats(); st.Size != 0 {
		t.Fatalf("failed entries retained: %+v", st)
	}
}

// TestContextCacheFailedSharedPrepIsMiss pins the counter contract on
// the failed-prep path: a goroutine that joins another caller's
// in-flight preparation is counted a hit at lookup, but if that shared
// preparation fails neither caller received a context — both must
// report (and count) a miss, and the dead entry must hold no slot.
// Before the fix the joiner returned hit=true with its error, so the
// obs layer recorded a cache hit for a request that errored.
func TestContextCacheFailedSharedPrepIsMiss(t *testing.T) {
	c := newContextCache(4)
	fail := errors.New("invalid fault set")
	started := make(chan struct{})
	release := make(chan struct{})
	prep := func() (any, error) {
		close(started)
		<-release
		return nil, fail
	}

	type result struct {
		hit bool
		err error
	}
	results := make(chan result, 2)
	go func() {
		_, hit, err := c.get("9", prep)
		results <- result{hit, err}
	}()
	<-started // the first lookup owns the in-flight preparation

	go func() {
		// Joins the first caller's preparation; its own prep never runs.
		_, hit, err := c.get("9", prep)
		results <- result{hit, err}
	}()
	// The joiner counts a hit at lookup before blocking on the shared
	// once; wait for that counter so the release cannot race past it.
	for c.stats().Hits != 1 {
		runtime.Gosched()
	}
	close(release)

	for i := 0; i < 2; i++ {
		r := <-results
		if !errors.Is(r.err, fail) {
			t.Fatalf("lookup %d error = %v, want prep failure", i, r.err)
		}
		if r.hit {
			t.Fatal("errored lookup reported hit=true")
		}
	}
	st := c.stats()
	if st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("stats after failed shared prep = %+v, want 0 hits / 2 misses", st)
	}
	if st.Size != 0 || st.Evictions != 0 {
		t.Fatalf("failed entry held a slot: %+v", st)
	}
}

// TestContextCacheConcurrentSharedPrepare checks concurrent lookups of
// one fresh key share a single preparation.
func TestContextCacheConcurrentSharedPrepare(t *testing.T) {
	c := newContextCache(4)
	p := &prepCounter{}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := c.get("42", p.prepare([]ftrouting.EdgeID{42})); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if len(p.calls) != 1 {
		t.Fatalf("%d preparations for one key, want 1", len(p.calls))
	}
	st := c.stats()
	if st.Hits+st.Misses != 16 {
		t.Fatalf("hits %d + misses %d != 16 lookups", st.Hits, st.Misses)
	}
}

// TestServeCacheRace hammers one server from GOMAXPROCS goroutines with
// overlapping fault sets, a cache deliberately smaller than the working
// set (constant eviction churn), and verifies under -race that every
// response matches the precomputed truth for its fault set — eviction
// never serves a context prepared for different faults — and that the
// hit/miss counters are consistent with the request count.
func TestServeCacheRace(t *testing.T) {
	g := ftrouting.RandomConnected(40, 70, 3)
	labels, err := ftrouting.BuildConnectivityLabels(g, ftrouting.ConnOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// 8 overlapping fault sets, capacity 3: most lookups churn.
	faultSets := make([][]ftrouting.EdgeID, 8)
	for i := range faultSets {
		faultSets[i] = ftrouting.RandomFaults(g, 3, uint64(100+i))
	}
	pairs := servePairs(g.N())
	want := make([][]bool, len(faultSets))
	for i, faults := range faultSets {
		want[i], err = labels.ConnectedBatch(
			ftrouting.QueryBatch{Pairs: toPairs(pairs), Faults: faults},
			ftrouting.BatchOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
	}

	s, err := New(labels, Options{ContextCacheSize: 3, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	workers := runtime.GOMAXPROCS(0)
	const perWorker = 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	client := ts.Client()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				fi := (w*perWorker + i*3 + w) % len(faultSets)
				raw := fmt.Sprintf(`{"pairs":%s,"faults":%s}`,
					jsonPairs(pairs), jsonFaults(faultSets[fi]))
				resp, err := client.Post(ts.URL+"/v1/connected", "application/json", strings.NewReader(raw))
				if err != nil {
					errs <- err
					return
				}
				var body api.ConnectedResponse
				err = decodeBody(resp, &body)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(body.Results, want[fi]) {
					errs <- fmt.Errorf("worker %d req %d: fault set %d answered %v, want %v",
						w, i, fi, body.Results, want[fi])
					return
				}
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	stats := s.Stats()
	total := uint64(workers * perWorker)
	if got := stats.Endpoints["connected"].Requests; got != total {
		t.Fatalf("request counter %d, want %d", got, total)
	}
	if stats.Endpoints["connected"].Errors != 0 {
		t.Fatalf("error counter %d, want 0", stats.Endpoints["connected"].Errors)
	}
	cs := stats.Cache
	// Every non-empty request performs exactly one cache lookup.
	if cs.Hits+cs.Misses != total {
		t.Fatalf("hits %d + misses %d != %d requests", cs.Hits, cs.Misses, total)
	}
	if cs.Size > 3 {
		t.Fatalf("cache size %d exceeds capacity 3", cs.Size)
	}
	if cs.Misses < uint64(len(faultSets)) {
		t.Fatalf("misses %d below distinct fault sets %d", cs.Misses, len(faultSets))
	}
	if cs.Evictions != cs.Misses-uint64(cs.Size) {
		t.Fatalf("evictions %d, want misses-size = %d", cs.Evictions, cs.Misses-uint64(cs.Size))
	}
	if stats.PairsServed != total*uint64(len(pairs)) {
		t.Fatalf("pairs served %d, want %d", stats.PairsServed, total*uint64(len(pairs)))
	}
}

// jsonPairs/jsonFaults render request fragments without importing json in
// the hot hammer loop.
func jsonPairs(pairs [][2]int32) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[%d,%d]", p[0], p[1])
	}
	b.WriteByte(']')
	return b.String()
}

func jsonFaults(faults []ftrouting.EdgeID) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, id := range faults {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", id)
	}
	b.WriteByte(']')
	return b.String()
}

// decodeBody reads and decodes a 200 response.
func decodeBody(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
