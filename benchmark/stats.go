package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (mean of the two middle values for
// an even count); NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the method
// Python's statistics.quantiles(xs, n=4) uses by default ("exclusive"),
// so spreads computed here match the ones computed over result files
// with Python. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, false
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3), true
}

// spread is the interquartile range of xs as a share of its median (0
// when xs has fewer than two values).
func spread(xs []float64) float64 {
	q1, q3, ok := quartiles(xs)
	med := median(xs)
	if !ok || med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the p-th percentile of xs (nearest rank) and
// whether at least minBeyond samples lie beyond it — a tail percentile
// resting on fewer samples is not reported.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	rank := max(int(math.Ceil(p/100*float64(len(xs)))), 1)
	return stats.NewECDF(xs).Quantile(p / 100), len(xs)-rank >= minBeyond
}
