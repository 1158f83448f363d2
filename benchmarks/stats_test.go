package main

import (
	"math"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	sorted := make([]int64, 100)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.001, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %d, want 0", got)
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
}

// One stalled slice must not move the reported percentiles or rate:
// that is what the slice median is for.
func TestSegmentMediansIgnoreOneStalledSlice(t *testing.T) {
	const span = int64(numSegments) * 1000
	var samples []sample
	for seg := 0; seg < numSegments; seg++ {
		for i := 0; i < 100; i++ {
			lat := int64(10)
			if i == 99 {
				lat = 50 // each slice's own p99+ sample
			}
			if seg == 3 {
				lat = 100000 // the stall
			}
			samples = append(samples, sample{end: int64(seg)*1000 + int64(i), lat: lat, kind: kindPlace})
		}
	}
	st := segmentMedians(samples, span, int(kindPlace))
	if st.p50 != 10 || st.p95 != 10 || st.p99 != 10 {
		t.Errorf("p50/p99 = %v/%v, want 10/10 (the stalled slice must not count)", st.p50, st.p99)
	}
	if st.n != len(samples) {
		t.Errorf("n = %d, want %d", st.n, len(samples))
	}
	wantRate := 100 / (float64(span) / numSegments / 1e9)
	if math.Abs(st.perSec-wantRate) > 1e-6*wantRate {
		t.Errorf("rate = %v, want %v", st.perSec, wantRate)
	}
	// The whole-run p99 would have been the stall.
	if other := segmentMedians(samples, span, int(kindRelease)); other.n != 0 || other.p50 != 0 {
		t.Errorf("no release samples were given, got %+v", other)
	}
}

func TestSegmentMediansEdges(t *testing.T) {
	if st := segmentMedians(nil, 100, -1); st != (sliceStats{}) {
		t.Errorf("no samples: %+v", st)
	}
	// A sample that completes at or after the span lands in the last slice.
	st := segmentMedians([]sample{{end: 5000, lat: 7}}, 1000, -1)
	if st.n != 1 || st.p50 != 7 {
		t.Errorf("late sample dropped: %+v", st)
	}
}

func TestReduceSlicesUnequalRepetitions(t *testing.T) {
	st := reduceSlices([][]int64{{1, 2, 3}, {10, 20, 30, 40}, {5}}, []float64{1, 2, 0.5})
	if st.p50 != 5 { // per-slice p50s: 2, 20, 5
		t.Errorf("p50 = %v, want 5", st.p50)
	}
	if st.perSec != 2 { // rates: 3, 2, 2
		t.Errorf("perSec = %v, want 2", st.perSec)
	}
}

func TestStageTableSumsToWhole(t *testing.T) {
	rows := stageTable(100, []string{"a", "b"}, map[string]float64{"a": 30, "b": 45})
	sum := 0.0
	for _, r := range rows[:len(rows)-1] {
		sum += r.US
	}
	if sum != 100 || rows[len(rows)-1].Stage != "total" || rows[len(rows)-2].Stage != "unattributed" || rows[len(rows)-2].US != 25 {
		t.Errorf("rows = %+v", rows)
	}
}
