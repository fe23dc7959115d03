package main

import (
	"fmt"
	"math"
	"sort"
)

// failedLatency stands in for the latency of a failed or shed request:
// it sorts above every measured value, so a failure counts as missing
// any latency limit.
var failedLatency = math.Inf(1)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of
// sorted, or NaN when sorted is empty.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := ceilRank(q, len(sorted))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPercentiles are the percentiles a timing may be reported at, from
// the highest down.
var tailPercentiles = []float64{0.9999, 0.999, 0.99, 0.9, 0.5}

// highestSupported returns the highest percentile in tailPercentiles
// that leaves at least ten samples beyond it in a set of n, or 0 when
// even the median has fewer than ten.
func highestSupported(n int) float64 {
	for _, q := range tailPercentiles {
		// The count beyond the nearest-rank q-quantile.
		if n-ceilRank(q, n) >= 10 {
			return q
		}
	}
	return 0
}

// ceilRank is ceil(q*n), robust to q*n landing a rounding error above
// a whole number (0.99*1000).
func ceilRank(q float64, n int) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// median returns the median of xs (mean of the two middle values for
// an even count) without modifying xs; NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// latencies collects per-request latencies in microseconds.
type latencies struct{ us []float64 }

func (l *latencies) add(us float64) { l.us = append(l.us, us) }
func (l *latencies) fail()          { l.us = append(l.us, failedLatency) }

// summary sorts the samples and returns the median and the 99th
// percentile; ok is false when fewer than ten samples lie beyond p99.
func (l *latencies) summary() (p50, p99 float64, ok bool) {
	sort.Float64s(l.us)
	return percentile(l.us, 0.5), percentile(l.us, 0.99), highestSupported(len(l.us)) >= 0.99
}

// rounds collects one figure set per round; each read metric is the
// median over rounds, so a burst of machine noise that slows a few
// rounds does not move it.
type rounds struct {
	rate, p50, p99 []float64
	samples        int
}

// add records a round's request rate and its latencies; every round
// must leave at least ten samples beyond its p99.
func (r *rounds) add(rate float64, lat []float64) error {
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	if highestSupported(len(s)) < 0.99 {
		return fmt.Errorf("a round of %d samples leaves fewer than ten beyond p99", len(s))
	}
	r.rate = append(r.rate, rate)
	r.p50 = append(r.p50, percentile(s, 0.5))
	r.p99 = append(r.p99, percentile(s, 0.99))
	r.samples += len(s)
	return nil
}
