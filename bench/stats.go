package main

import (
	"math"
	"sort"
	"time"
)

// sample is one timed operation: when it started and ended (since the
// start of its phase) and how many raw field bytes it encoded, stored or
// served. Verification of the op's output happens after end is taken.
type sample struct {
	start, end time.Duration
	bytes      int64
}

func (s sample) latency() time.Duration { return s.end - s.start }

// percentile returns the q-quantile (0 < q <= 1) of the values by the
// nearest-rank rule; the slice must be sorted ascending and non-empty.
func percentile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// samplesBeyond is how many of n samples lie strictly above the
// nearest-rank q-quantile. A percentile is reported with confidence only
// when at least minBeyond samples lie beyond it.
func samplesBeyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

const minBeyond = 10

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is what
// the benchmark contract measures spread with. It needs two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 { // k-th of 4 cut points
		j := min(max(k*(n+1)/4, 1), n-1)
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

func latenciesMs(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.latency()) / 1e6
	}
	sort.Float64s(out)
	return out
}

// spread is (max − min) ÷ median of the values.
func spread(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return (hi - lo) / median(v)
}
