package main

import (
	"math"
	"slices"
)

// rankIndex returns the zero-based index of the exact-rank percentile in a
// sorted sample of n values: the smallest value with at least permille/1000
// of the sample at or below it, i.e. sorted[ceil(permille·n/1000) − 1].
// No interpolation: every reported percentile is a value that was measured.
func rankIndex(n, permille int) int {
	if n <= 0 {
		return -1
	}
	r := (permille*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r - 1
}

// percentile returns the exact-rank percentile of an already sorted sample,
// or 0 for an empty one.
func percentile[T int64 | uint32 | float64](sorted []T, permille int) T {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(len(sorted), permille)]
}

// sortedCopy returns a sorted copy of xs.
func sortedCopy[T int64 | uint32 | float64](xs []T) []T {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// median is the exact-rank 50th percentile of xs (the lower middle value of
// an even-sized sample).
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 500) }

// ratio returns a/b, or 0 when b is 0 (a layer the workload never drove).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finite maps NaN and ±Inf, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
