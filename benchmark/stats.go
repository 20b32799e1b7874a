package main

import (
	"math"
	"sort"

	"lmerge/internal/metrics"
)

// median and p99 interpolate between order statistics as every other
// quantile in this repository does (metrics.Summarize); 0 for an empty sample.
func median(v []float64) float64 { return metrics.Summarize(v).P50 }

func p99(v []float64) float64 { return metrics.Summarize(v).P99 }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// acceptance driver computes spreads with. Fewer than two values have no
// spread.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n < 2 {
		if n == 1 {
			return v[0], v[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th of 4 cut points over n+1 gaps
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / m)
}
