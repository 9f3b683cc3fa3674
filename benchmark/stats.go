package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile of an ascending slice by the
// nearest-rank rule: the smallest value with at least q of the sample at or
// below it. With n samples, n·(1−q) of them lie beyond the result.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// ratio is a / b, or 0 when there is nothing to divide by (a counter that
// never moved on this workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the middle value (the mean of the middle two for an even
// count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartileSpread is the acceptance statistic of the benchmark contract:
// the distance between the first and third quartile as a share of the
// median, with quartiles computed like Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method).
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	quartile := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / median(s)
}
