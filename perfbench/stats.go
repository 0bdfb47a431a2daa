package main

import (
	"math"
	"sort"
)

// timing summarizes one set of latency samples by the benchmark's
// percentile rule: the median, plus the highest percentile that still
// has at least ten samples beyond it, plus the sample count.
type timing struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail"`
	// Blocks is how many blocks the run's median is taken over (see
	// blockTiming); 0 for one set of samples.
	Blocks int `json:"blocks,omitempty"`
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPct is the highest candidate percentile with at least ten of n
// samples beyond it. Below 20 samples none above the median has, so
// the tail falls back to the median.
func tailPct(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 50
}

// summarize applies the percentile rule to xs (sorted in place).
func summarize(xs []float64) timing {
	sort.Float64s(xs)
	t := timing{N: len(xs), TailPct: tailPct(len(xs))}
	if len(xs) > 0 {
		t.P50, t.Tail = rank(xs, 50), rank(xs, t.TailPct)
	}
	return t
}

// rank is the nearest-rank percentile of sorted xs.
func rank(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p/100*float64(len(sorted))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median returns the median of xs (sorted in place), 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio divides num by base, reading 0 when the base is 0 (the layer
// did no work on this workload).
func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}
