package main

import (
	"math"
	"sort"
)

// summary condenses the samples of one metric. With fewer than twenty
// samples no tail percentile is supportable, so none is kept: the median
// is the reported value and the quartiles say how far to trust it.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

func summarize(samples []float64) summary {
	if len(samples) == 0 {
		return summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	q1, med, q3 := quartiles(s)
	return summary{N: len(s), Min: s[0], Q1: q1, Median: med, Q3: q3, Max: s[len(s)-1]}
}

// quartiles returns the three cut points of sorted the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is what the driver computes spreads with. One sample is its own
// quartiles.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	n := len(sorted)
	if n == 1 {
		return sorted[0], sorted[0], sorted[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise figure every bound is judged against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func median(samples []float64) float64 { return summarize(samples).Median }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
