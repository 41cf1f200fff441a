package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a tail figure resting on fewer is noise, not a measurement.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs,
// and false when fewer than minBeyond samples lie above it — so p50 needs
// at least 20 samples and p90 at least 100.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	k := int(math.Ceil(p * float64(n) / 100)) // 1-based rank
	if k < 1 {
		k = 1
	}
	if n-k < minBeyond {
		return 0, false
	}
	s := sortedCopy(xs)
	return s[k-1], true
}

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs by the
// same rule as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is how run-to-run spreads are judged. It
// needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, false
	}
	s := sortedCopy(xs)
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
