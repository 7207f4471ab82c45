package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	return percentile(xs, 0.5)
}

// percentile returns the p-quantile of xs by linear interpolation between
// order statistics; 0 for no samples. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile applies the reporting rule for timings: beside the median,
// report the highest percentile that still has at least ten samples beyond
// it. It returns 0 when even p90 has fewer (n < 100): report the median
// alone.
func tailPercentile(n int) float64 {
	for _, p := range []float64{0.99, 0.95, 0.9} {
		if float64(n)*(1-p) >= 10-1e-9 {
			return p
		}
	}
	return 0
}
