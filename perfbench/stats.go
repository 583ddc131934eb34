package main

import (
	"math"
	"sort"
)

// median returns the median of xs (the mean of the middle pair for an
// even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the q-quantile of xs by the nearest-rank method:
// the smallest sample with at least q of the samples at or below it. It
// is exact (no interpolation between samples); below 1/(1−q) samples
// the top quantiles are the maximum.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// maxOf returns the largest sample, or 0 for none.
func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// mean returns the arithmetic mean, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// marginal returns the per-unit cost a hook adds: for paired samples of
// the same work with and without the hook (total ns and simulated ms of
// each), the median over pairs of with/withUnits − without/withoutUnits.
// Pairing cancels host noise that hits both halves of a pair alike.
func marginal(withNs, withUnits, withoutNs, withoutUnits []float64) float64 {
	n := len(withNs)
	if len(withoutNs) < n {
		n = len(withoutNs)
	}
	d := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if withUnits[i] <= 0 || withoutUnits[i] <= 0 {
			continue
		}
		d = append(d, withNs[i]/withUnits[i]-withoutNs[i]/withoutUnits[i])
	}
	if len(d) == 0 {
		return 0
	}
	return median(d)
}
