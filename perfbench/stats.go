package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a reported tail percentile
// for it to mean anything: with fewer, the "p99" of 50 samples is just the
// largest one.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sum returns the total of xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// mean returns the arithmetic mean of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// tail is a percentile as the benchmark reports it: which percentile was
// actually taken, its value, and the sample count behind it.
type tail struct {
	Q     float64 // the percentile taken, in (0, 1)
	Value float64
	N     int
}

// tailPercentile returns the want-th percentile of xs, lowered to the
// highest percentile that still has at least minBeyond samples above it,
// but never below the median. The nearest-rank value at percentile q is
// sorted[ceil(q*n)-1], so q = 1 - minBeyond/n leaves exactly minBeyond
// samples beyond it. At the floor the value is the median itself.
func tailPercentile(xs []float64, want float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	q := min(want, 1-float64(minBeyond)/float64(n))
	if q <= 0.5 {
		return tail{Q: 0.5, Value: median(xs), N: n}
	}
	s := slices.Sorted(slices.Values(xs))
	k := int(math.Ceil(q*float64(n)-1e-9)) - 1
	k = min(max(k, 0), n-1)
	return tail{Q: q, Value: s[k], N: n}
}
