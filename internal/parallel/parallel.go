// Package parallel is the shared concurrency substrate for label
// construction. Every build path in the repository (connectivity schemes
// per component, distance/routing instances per tree-cover scale and
// cluster, sketch engines per copy, per-vertex label and table assembly)
// has embarrassingly parallel structure: the work items are independent
// and their randomness is derived up front from the master seed via
// xrand.DeriveSeed keyed by the item's index. This package provides the
// bounded worker pool those paths share.
//
// Determinism contract: callers must derive all per-item randomness from
// the item index before or inside the item function, never from execution
// order. Under that discipline, ForEach and Map produce results that are
// bit-identical at any parallelism level, and the error returned is the
// one of the lowest-indexed failing item regardless of scheduling.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Workers normalizes a Parallelism option value to a worker count:
// values <= 0 select runtime.GOMAXPROCS(0) (use every available core),
// 1 selects sequential execution, and larger values are used as given.
func Workers(parallelism int) int {
	if parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallelism
}

// ForEach runs fn(i) for every i in [0, n), using at most
// Workers(parallelism) concurrent goroutines. All items run even if some
// fail (builds validate inputs up front, so item errors are exceptional);
// the returned error is the lowest-indexed one, which makes the result
// independent of goroutine scheduling.
func ForEach(parallelism, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := Workers(parallelism)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// inlineBudget is how long ForEachChunked runs a batch on the calling
// goroutine before it brings in the pool. It sits above the cost of
// waking idle workers and joining them (tens of µs), so a batch that
// finishes within it never pays a dispatch, and a longer one pays at
// most one budget of serial work before its remaining items spread. It
// is a constant, not an option: it stands for the pool's own overhead,
// which does not depend on the caller.
const inlineBudget = 50 * time.Microsecond

// ForEachChunked runs fn(i) for every i in [0, n) and returns the
// lowest-indexed error, like ForEach, for per-item work far cheaper than
// a build step (the per-pair batch evaluators). The calling goroutine
// runs items in index order; at the first error it returns that error.
// Once the batch has run longer than inlineBudget, the remaining items
// are handed in contiguous chunks (one atomic claim amortizes over many
// items) to up to Workers(parallelism) goroutines, the caller among
// them, and every remaining item runs even if some fail.
func ForEachChunked(parallelism, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := min(Workers(parallelism), n)
	if workers == 1 { // no pool to bring in, so no clock to read
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
		if i+1 < n && time.Since(start) > inlineBudget {
			return forEachChunkedPool(workers, i+1, n, fn)
		}
	}
	return nil
}

// forEachChunkedPool runs items [lo, n) on the caller plus up to
// workers-1 goroutines and returns the lowest-indexed error.
func forEachChunkedPool(workers, lo, n int, fn func(i int) error) error {
	workers = min(workers, n-lo)
	// Chunks are small enough that a straggling chunk rebalances across the
	// pool, large enough that claim traffic stays negligible.
	chunk := (n - lo + workers*8 - 1) / (workers * 8)
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	var mu sync.Mutex
	errIdx, errVal := n, error(nil)
	work := func() {
		for {
			c := int(next.Add(int64(chunk))) - chunk
			if c >= n {
				return
			}
			for i := c; i < min(c+chunk, n); i++ {
				if err := fn(i); err != nil {
					mu.Lock()
					if i < errIdx {
						errIdx, errVal = i, err
					}
					mu.Unlock()
				}
			}
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return errVal
}

// Map runs fn(i) for every i in [0, n) under the same pool and error
// discipline as ForEach and returns the results in index order.
func Map[T any](parallelism, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(parallelism, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
