// Package stats provides the small statistical toolkit the experiment
// harness and the benchmark checks use: the Wilson interval of a binomial
// proportion and sample quantiles.
package stats

import (
	"math"
	"sort"
)

// WilsonCI returns the 95% Wilson score interval for a binomial proportion
// with successes out of trials — the right interval for estimating
// probabilities like "fraction of sampled configurations that are
// α-compressed", including near 0 and 1.
func WilsonCI(successes, trials int) (lo, hi float64) {
	if trials == 0 {
		return 0, 1
	}
	const z = 1.959963984540054
	n := float64(trials)
	p := float64(successes) / n
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	half := z * math.Sqrt(p*(1-p)/n+z2/(4*n*n)) / denom
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the sample using linear
// interpolation. The input slice is not modified.
func Quantile(sample []float64, q float64) float64 {
	if len(sample) == 0 {
		return math.NaN()
	}
	sorted := append([]float64{}, sample...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}
