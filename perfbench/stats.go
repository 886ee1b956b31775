package main

import (
	"math"
	"slices"
	"time"
)

// nearestRank returns the q-quantile of ascending-sorted samples under the
// nearest-rank definition: the smallest sample with at least a q share of
// the samples at or below it. It returns 0 for no samples. The benchmark
// keeps its own copy rather than calling the program's telemetry package,
// so a change to the program cannot change how the benchmark reads it.
func nearestRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	i = max(0, min(i, n-1))
	return sorted[i]
}

// quantile is nearestRank over an unsorted sample set.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return nearestRank(s, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
