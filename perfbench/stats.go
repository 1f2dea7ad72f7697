package main

import (
	"math"
	"sort"
)

// tailLadder lists the tail percentiles the benchmark reports, highest
// first. tailQuantile picks the highest one that still leaves at least
// minBeyond samples above it. The ladder stops at p90: higher up, the
// job stream's tail lands on the service queue's bursts, which moved its
// p99 by 39% (quartile spread over median) across ten seeds.
var tailLadder = []float64{0.9, 0.75, 0.5}

// minBeyond is how many samples must lie beyond a reported percentile
// for it to mean anything.
const minBeyond = 10

// beyond returns how many of n samples lie above the nearest-rank
// q-quantile.
func beyond(n int, q float64) int {
	return n - rank(n, q)
}

// rank is the 1-based nearest-rank index of the q-quantile among n
// sorted samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailQuantile returns the highest ladder percentile with at least
// minBeyond of n samples beyond it, or 0 when even the median has fewer.
func tailQuantile(n int) float64 {
	for _, q := range tailLadder {
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0
}

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
// xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

// median is the middle value of xs, averaging the two middle values of
// an even count (0 for no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// maxOf returns the largest value of xs (0 for no samples).
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// ratio divides, returning 0 for a zero denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
