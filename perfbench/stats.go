package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile
// for it to mean anything: p99 needs 1,000 samples, p90 needs 100.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile (0 < q < 1) of xs,
// which it sorts in place. Failed operations enter as +Inf, so they
// count as missing any latency limit.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// tailPercentile is the highest of p50/p90/p99/p99.9 with at least
// minBeyond of n samples beyond it (0 when even the median has not).
func tailPercentile(n int) float64 {
	best := 0.0
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if float64(n)*(1-q) >= minBeyond-1e-9 {
			best = q
		}
	}
	return best
}

// tailAt returns the q-quantile of xs, or an error when fewer than
// minBeyond samples lie beyond it.
func tailAt(xs []float64, q float64) (float64, error) {
	if tailPercentile(len(xs)) < q {
		return 0, fmt.Errorf("%d samples are too few for p%g", len(xs), q*100)
	}
	return quantile(xs, q), nil
}

// median of xs (sorted in place).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windowed splits xs (in completion order) into k consecutive windows,
// takes the q-quantile of each, and returns the median of those. A
// single disturbed window — a GC storm, a neighbour's burst — then
// moves the figure far less than it would move one pooled quantile.
func windowed(xs []float64, k int, q float64) float64 {
	if k < 1 || len(xs) < k {
		return quantile(append([]float64(nil), xs...), q)
	}
	per := make([]float64, k)
	for w := 0; w < k; w++ {
		part := append([]float64(nil), xs[w*len(xs)/k:(w+1)*len(xs)/k]...)
		per[w] = quantile(part, q)
	}
	return median(per)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
