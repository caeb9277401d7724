package main

import (
	"math"
	"slices"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(xs))
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the average of xs.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartiles of xs by the method
// Python's statistics.quantiles(xs, n=4) uses by default ("exclusive"),
// so spreads printed here match spreads computed from the same values
// with Python.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := len(s) + 1
	at := func(i int) float64 {
		j := min(max(i*m/n, 1), len(s)-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// meanMS returns the mean of the durations in milliseconds, or NaN for
// none.
func meanMS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return math.NaN()
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / 1e6 / float64(len(ds))
}

// percentileMS returns the nearest-rank p-th percentile (0 < p <= 100)
// of the durations, in milliseconds.
func percentileMS(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(ds))
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return float64(s[min(max(rank, 1), len(s))-1]) / 1e6
}
