package main

import (
	"math"
	"sort"
)

// Summary is a sample set reduced the way every result reports it: median,
// quartiles, extremes and the sample count.
type Summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// Summarize reduces samples to their Summary. The quartiles use the same
// exclusive method as Python's statistics.quantiles(data, n=4), so a spread
// computed here agrees with one computed over the same values there. An
// empty input gives the zero Summary.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := sorted(samples)
	return Summary{
		Median: Quantile(s, 0.5),
		Q1:     Quantile(s, 0.25),
		Q3:     Quantile(s, 0.75),
		Min:    s[0],
		Max:    s[len(s)-1],
		N:      len(s),
	}
}

// Spread is the interquartile distance as a share of the median's size
// (0 when the median is 0).
func (s Summary) Spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func sorted(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// Quantile returns the p-quantile (0 < p < 1) of an ascending sample with
// Python's "exclusive" interpolation: position p·(n+1), clamped to the
// interior pair of samples. A single sample is its own every quantile.
func Quantile(asc []float64, p float64) float64 {
	n := len(asc)
	switch n {
	case 0:
		return 0
	case 1:
		return asc[0]
	}
	h := p * float64(n+1)
	j := int(math.Floor(h))
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	return asc[j-1] + (h-float64(j))*(asc[j]-asc[j-1])
}

// tailPercentiles are the percentiles a tail latency may be reported at,
// highest first.
var tailPercentiles = []float64{0.99, 0.95, 0.90}

// Tail returns the highest of p99, p95 and p90 that has at least ten
// samples beyond it, with that percentile; ok is false when even p90 lacks
// them (fewer than 100 samples).
func Tail(samples []float64) (value, percentile float64, ok bool) {
	n := len(samples)
	for _, p := range tailPercentiles {
		// The epsilon keeps 0.99·1000 from rounding up to 991.
		if n-int(math.Ceil(p*float64(n)-1e-9)) >= 10 {
			return Quantile(sorted(samples), p), p, true
		}
	}
	return 0, 0, false
}

// Percentile is Quantile over an unsorted sample.
func Percentile(samples []float64, p float64) float64 {
	return Quantile(sorted(samples), p)
}
