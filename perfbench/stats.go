package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPermille is the ladder tailPercentile picks from, in tenths of a
// percent so the "samples beyond" test is exact integer arithmetic.
var tailPermille = []int{999, 990, 950, 900, 750, 500}

// tailPercentile returns the highest percentile of the ladder that still
// has at least ten of n samples beyond it, so a reported tail rests on
// more than a handful of observations; ok is false when n is too small
// for any of them.
func tailPercentile(n int) (p float64, ok bool) {
	for _, pm := range tailPermille {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 10, true
		}
	}
	return 0, false
}
