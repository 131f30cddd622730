package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
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
