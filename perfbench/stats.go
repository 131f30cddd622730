package main

import (
	"slices"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// millis collects d(s) in milliseconds for every successful s in runs
// for which d reports a sample.
func millis(runs []*sent, d func(*sent) (time.Duration, bool)) []float64 {
	var out []float64
	for _, s := range runs {
		if s.failed() {
			continue
		}
		if v, ok := d(s); ok {
			out = append(out, float64(v)/1e6)
		}
	}
	return out
}
