package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	for _, p := range []int{1, 2, 7, 64} {
		if got := Workers(p); got != p {
			t.Errorf("Workers(%d) = %d", p, got)
		}
	}
}

func TestForEachRunsAllItems(t *testing.T) {
	for _, p := range []int{1, 2, 8, 100} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			const n = 250
			hits := make([]atomic.Int32, n)
			if err := ForEach(p, n, func(i int) error {
				hits[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range hits {
				if hits[i].Load() != 1 {
					t.Fatalf("item %d ran %d times", i, hits[i].Load())
				}
			}
		})
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(4, 0, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachLowestIndexError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	for _, p := range []int{1, 8} {
		// Items 3 and 17 fail; the error of item 3 must win at any
		// parallelism.
		err := ForEach(p, 32, func(i int) error {
			switch i {
			case 3:
				return errA
			case 17:
				return errB
			}
			return nil
		})
		if err != errA {
			t.Errorf("p=%d: got %v, want %v", p, err, errA)
		}
	}
}

func TestMapOrdered(t *testing.T) {
	for _, p := range []int{1, 2, 8} {
		got, err := Map(p, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("p=%d: got[%d] = %d, want %d", p, i, v, i*i)
			}
		}
	}
}

func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	got, err := Map(4, 10, func(i int) (int, error) {
		if i == 5 {
			return 0, boom
		}
		return i, nil
	})
	if err != boom || got != nil {
		t.Fatalf("got (%v, %v), want (nil, boom)", got, err)
	}
}

func TestForEachChunkedRunsAllItems(t *testing.T) {
	for _, tc := range []struct{ p, n int }{
		{1, 250}, {2, 250}, {8, 250}, {8, 3}, {8, 1}, {2, 0},
	} {
		t.Run(fmt.Sprintf("p=%d/n=%d", tc.p, tc.n), func(t *testing.T) {
			hits := make([]atomic.Int32, tc.n)
			if err := ForEachChunked(tc.p, tc.n, func(i int) error {
				hits[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range hits {
				if hits[i].Load() != 1 {
					t.Fatalf("item %d ran %d times", i, hits[i].Load())
				}
			}
		})
	}
}

func TestForEachChunkedLowestIndexError(t *testing.T) {
	errs := map[int]error{}
	for _, i := range []int{5, 40, 41, 199} {
		errs[i] = fmt.Errorf("item %d", i)
	}
	for _, p := range []int{1, 2, 8} {
		// Items 5, 40, 41 and 199 fail, in different chunks at p > 1; the
		// error of item 5 must win at any parallelism.
		err := ForEachChunked(p, 200, func(i int) error { return errs[i] })
		if err != errs[5] {
			t.Errorf("p=%d: got %v, want %v", p, err, errs[5])
		}
	}
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 17 [running]:").
func goid() string {
	var buf [64]byte
	s := string(buf[:runtime.Stack(buf[:], false)])
	s = strings.TrimPrefix(s, "goroutine ")
	return s[:strings.IndexByte(s, ' ')]
}

// TestForEachChunkedCheapBatchRunsInline pins that a batch finishing
// within the inline budget runs in order and starts no
// goroutine, at any parallelism. The items are nearly free, so only a
// host stall longer than the budget could send one to the pool; of a
// few attempts, at least one must run wholly inline.
func TestForEachChunkedCheapBatchRunsInline(t *testing.T) {
	for _, p := range []int{0, 2, 8} {
		inline := false
		for attempt := 0; attempt < 5 && !inline; attempt++ {
			before := runtime.NumGoroutine()
			var ran atomic.Int32
			var strayed atomic.Bool
			if err := ForEachChunked(p, 16, func(i int) error {
				if runtime.NumGoroutine() != before || int(ran.Add(1))-1 != i {
					strayed.Store(true)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			inline = !strayed.Load() && ran.Load() == 16
		}
		if !inline {
			t.Errorf("p=%d: a 16-item batch of empty items started a goroutine or ran out of order in each of 5 attempts", p)
		}
	}
}

// TestForEachChunkedSlowItemsOverlap pins that items slower than the
// inline budget spread over the pool: at least two goroutines, the
// caller among them, run items at the same time.
func TestForEachChunkedSlowItemsOverlap(t *testing.T) {
	const n = 32
	var mu sync.Mutex
	ids := map[string]bool{}
	var running, peak atomic.Int32
	if err := ForEachChunked(4, n, func(int) error {
		cur := running.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		time.Sleep(2 * inlineBudget)
		running.Add(-1)
		mu.Lock()
		ids[goid()] = true
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ids) < 2 || peak.Load() < 2 {
		t.Fatalf("slow items ran on %d goroutines, at most %d at once; want >= 2 of each", len(ids), peak.Load())
	}
	if !ids[goid()] {
		t.Fatal("the caller ran no item once the pool started")
	}
}

// TestForEachChunkedErrorAcrossInlineBoundary pins the lowest-index
// error when the failing items straddle the switch from the caller to
// the pool: item 0 runs past the budget inline, so later items run
// pooled.
func TestForEachChunkedErrorAcrossInlineBoundary(t *testing.T) {
	for _, failing := range [][]int{{0, 9}, {1, 2, 30}, {7, 31}, {31}} {
		errs := map[int]error{}
		for _, i := range failing {
			errs[i] = fmt.Errorf("item %d", i)
		}
		err := ForEachChunked(4, 32, func(i int) error {
			if i == 0 {
				time.Sleep(2 * inlineBudget)
			}
			return errs[i]
		})
		if want := errs[failing[0]]; err != want {
			t.Errorf("failing %v: got %v, want %v", failing, err, want)
		}
	}
}
