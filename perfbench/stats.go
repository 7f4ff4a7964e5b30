package main

import (
	"math"
	"sort"
)

// percentile is the p-th percentile (0 <= p <= 100) of xs, interpolating
// linearly between the two nearest ranks; NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := float64(len(s)-1) * p / 100
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// beyond counts the samples of n ranked above the p-th percentile.
func beyond(n int, p float64) int {
	return n - 1 - int(math.Floor(float64(n-1)*p/100+1e-9))
}

// tailPercentiles are the percentiles a timing's tail may be reported at.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// tailPercentile returns the highest percentile of tailPercentiles with at
// least ten of the n samples beyond it, or 0 when even the median has
// fewer: a tail read from fewer samples is noise.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n > 0 && beyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}
