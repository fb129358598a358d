package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// median is the middle value of xs, the mean of the two middle values
// for an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie above the reported tail value.
const tailBeyond = 10

// tail returns the highest percentile of xs that still has tailBeyond
// samples above it, with that percentile. With too few samples for any
// such percentile it returns the maximum and percentile 100.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n <= tailBeyond {
		return quantile(xs, 1), 100
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - tailBeyond // 1-based rank: exactly tailBeyond samples lie above s[k-1]
	return s[k-1], 100 * float64(k) / float64(n)
}
