package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail percentile:
// a percentile with fewer samples past it is a guess about one or two
// outliers, not a measurement.
const minBeyond = 10

// tailCandidates are the tail percentiles tried, highest first.
var tailCandidates = []float64{99.9, 99, 95, 90}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank is the 1-based nearest-rank position of the p-th percentile in n
// samples.
func rank(p float64, n int) int {
	// The tolerance keeps products like 99.9/100*10000 from rounding up
	// past an exact integer rank.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the p-th percentile of xs by nearest rank (0 for no
// samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rank(p, len(s))-1]
}

// median returns the middle sample, or the mean of the two middle samples
// for an even count (0 for no samples).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile picks the highest candidate percentile that leaves at
// least minBeyond of n samples beyond it. ok is false when even the lowest
// candidate does not.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		if n-rank(c, n) >= minBeyond {
			return c, true
		}
	}
	return 0, false
}

// tail returns the value at tailPercentile, or the largest sample when
// there are too few samples for any candidate.
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p, ok := tailPercentile(len(xs)); ok {
		return percentile(xs, p)
	}
	return sorted(xs)[len(xs)-1]
}

// ratio is num/den, or 0 when the base den is zero (nothing attempted).
func ratio(num, den float64) float64 {
	if den == 0 { //lint:allow floateq an exact zero base means nothing was attempted
		return 0
	}
	return num / den
}

// share is part/(part+rest): the ratio of useful outcomes to attempts when
// the counters track the two outcomes separately.
func share(part, rest float64) float64 { return ratio(part, part+rest) }

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
