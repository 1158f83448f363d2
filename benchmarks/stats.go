package main

import (
	"math"
	"sort"
)

// sample is one timed operation: when it completed (ns since the
// measured phase began), how long the caller waited for it, and which
// kind of op it was (workload-defined; serve uses kindPlace/kindRelease).
type sample struct {
	end  int64
	lat  int64
	kind uint8
}

const (
	kindPlace uint8 = iota
	kindRelease
)

// numSegments is how many equal time slices a measured phase is cut
// into. Latency percentiles and throughput are computed per slice and
// reported as the median of the slices: one scheduler stall then
// spoils one slice instead of the whole run's p99.
const numSegments = 10

// median returns the median of xs (mean of the middle pair for even
// lengths) and 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs, 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of sorted, 0 for an empty slice.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(float64(len(sorted))*p/100)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sliceStats is what one measured phase reduces to.
type sliceStats struct {
	// p50, p95 and p99 are the medians over the non-empty slices of the
	// per-slice nearest-rank percentiles, in ns.
	p50, p95, p99 float64
	// perSec is the median over slices of samples completed per second.
	perSec float64
	// n is the number of samples that fed the percentiles.
	n int
}

// reduceSlices reduces a measured phase cut into slices — tenths of a
// serve run, repetitions of a library workload — to per-slice p50, p95,
// p99 and rate, then to the median of the slices. lats[i] are the latency
// samples (ns) that completed in slice i, which lasted secs[i]; the
// sample slices are sorted in place.
func reduceSlices(lats [][]int64, secs []float64) sliceStats {
	var p50s, p95s, p99s, rates []float64
	st := sliceStats{}
	for i, b := range lats {
		if secs[i] > 0 {
			rates = append(rates, float64(len(b))/secs[i])
		}
		if len(b) == 0 {
			continue
		}
		st.n += len(b)
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		p50s = append(p50s, float64(percentile(b, 50)))
		p95s = append(p95s, float64(percentile(b, 95)))
		p99s = append(p99s, float64(percentile(b, 99)))
	}
	st.p50, st.p95, st.p99, st.perSec = median(p50s), median(p95s), median(p99s), median(rates)
	return st
}

// segmentMedians cuts [0, span) ns into numSegments equal time slices
// by completion time and reduces the samples of the wanted kind (any
// kind when kind < 0). Samples completing at or after span count in
// the last slice, so none is dropped.
func segmentMedians(samples []sample, span int64, kind int) sliceStats {
	if span <= 0 || len(samples) == 0 {
		return sliceStats{}
	}
	buckets := make([][]int64, numSegments)
	secs := make([]float64, numSegments)
	for i := range secs {
		secs[i] = float64(span) / numSegments / 1e9
	}
	for _, s := range samples {
		if kind >= 0 && int(s.kind) != kind {
			continue
		}
		i := int(s.end * numSegments / span)
		if i >= numSegments {
			i = numSegments - 1
		}
		if i < 0 {
			i = 0
		}
		buckets[i] = append(buckets[i], s.lat)
	}
	return reduceSlices(buckets, secs)
}
