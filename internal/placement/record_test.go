package placement

import (
	"fmt"
	"sync"
	"testing"

	"pagerankvm/internal/obs"
	"pagerankvm/internal/obs/record"
	"pagerankvm/internal/ranktable"
)

// recordRun places a fixed VM sequence over reg with a collector
// recorder attached and returns the captured decision stream.
func recordRun(t *testing.T, n int, reg *ranktable.Registry) []record.Decision {
	t.Helper()
	rec := record.NewCollector()
	p := NewPageRankVM(reg, WithSeed(7), WithRecorder(rec))
	c := newCluster(4)
	for i := 0; i < n; i++ {
		name := "[1,1]"
		if i%3 == 0 {
			name = "[1,1,1,1]"
		}
		vm := newVM(i, name)
		pm, assign, err := p.Place(c, vm, nil)
		if err != nil {
			continue // rejections are recorded too
		}
		if err := c.Host(pm, vm, assign); err != nil {
			t.Fatalf("Host vm %d: %v", i, err)
		}
	}
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	return rec.Decisions()
}

func TestRecorderCapturesDecisions(t *testing.T) {
	const n = 40
	ds := recordRun(t, n, smallRegistry(t))
	if len(ds) != n {
		t.Fatalf("recorded %d decisions, want %d", len(ds), n)
	}
	opened, placed, rejected := 0, 0, 0
	for i, d := range ds {
		if d.Seq != int64(i) {
			t.Fatalf("decision %d has seq %d", i, d.Seq)
		}
		if d.VM != i {
			t.Fatalf("decision %d records vm %d", i, d.VM)
		}
		switch {
		case d.Rejected:
			rejected++
			if d.PM != -1 {
				t.Fatalf("rejected decision %d has pm %d", i, d.PM)
			}
		case d.Opened:
			opened++
		default:
			placed++
		}
		if d.Phases == nil {
			t.Fatalf("decision %d missing phase timings", i)
		}
		if len(d.Candidates) == 0 && !d.Rejected {
			t.Fatalf("decision %d has no candidates", i)
		}
		// Scanned counts used-list candidates; the recorded candidate
		// set additionally includes unused-fallback PMs.
		nonUnused := 0
		for _, cand := range d.Candidates {
			if !cand.Unused {
				nonUnused++
			}
		}
		if nonUnused != d.Scanned {
			t.Fatalf("decision %d: %d non-fallback candidates, scanned %d", i, nonUnused, d.Scanned)
		}
		if d.Ties > 1 && len(d.TiedPMs) != d.Ties {
			t.Fatalf("decision %d: ties %d but tied pms %v", i, d.Ties, d.TiedPMs)
		}
	}
	// The tiny cluster fills up: the run must exercise open, place and
	// reject outcomes for the assertions above to mean anything.
	if opened == 0 || placed == 0 || rejected == 0 {
		t.Fatalf("run not representative: opened=%d placed=%d rejected=%d", opened, placed, rejected)
	}
}

// TestRecordingFastPathEquivalence: recordings of the same seeded run
// through the id-indexed fast path and through enumeration must diff
// clean — decision identity (chosen PM, bitwise score, candidate set,
// tie path) is independent of how a candidate was scored, with only
// the Fast metadata flag differing.
func TestRecordingFastPathEquivalence(t *testing.T) {
	const n = 24
	fast := recordRun(t, n, smallRegistry(t))
	slow := recordRun(t, n, enumRegistry(t, smallRegistry(t), pmSmall))
	sum := record.Diff(fast, slow)
	if !sum.Clean() {
		t.Fatalf("fast vs enumerated recordings diverge: %+v (first: %+v)", sum, sum.First)
	}
	sawFast := false
	for i := range fast {
		if fast[i].Fast {
			sawFast = true
		}
		if slow[i].Fast {
			t.Fatalf("enumerated decision %d flagged fast", i)
		}
	}
	if !sawFast {
		t.Fatal("fast run never used the fast path")
	}
}

func TestRecorderDisabledMatchesEnabled(t *testing.T) {
	// The recording branch must not perturb decisions: the same seeded
	// run without a recorder picks identical PMs.
	reg := smallRegistry(t)
	runPMs := func(withRec bool) []int {
		var opts []PageRankOption
		rec := record.NewCollector()
		opts = append(opts, WithSeed(5))
		if withRec {
			opts = append(opts, WithRecorder(rec))
		}
		p := NewPageRankVM(reg, opts...)
		c := newCluster(4)
		var pms []int
		for i := 0; i < 16; i++ {
			vm := newVM(i, "[1,1]")
			pm, assign, err := p.Place(c, vm, nil)
			if err != nil {
				pms = append(pms, -1)
				continue
			}
			if err := c.Host(pm, vm, assign); err != nil {
				t.Fatal(err)
			}
			pms = append(pms, pm.ID)
		}
		return pms
	}
	with, without := runPMs(true), runPMs(false)
	for i := range with {
		if with[i] != without[i] {
			t.Fatalf("decision %d: pm %d with recorder, %d without", i, with[i], without[i])
		}
	}
}

// TestParallelWorkersRecordDeterministicStream is the recorder
// concurrency contract at the placement layer, run under -race: many
// placement workers (each with its own placer and cluster, as parallel
// sweeps use them) share one recorder, and the combined stream must be
// seq-ordered and gap-free, with every worker's own decision
// subsequence identical to a solo run of that worker.
func TestParallelWorkersRecordDeterministicStream(t *testing.T) {
	const (
		workers = 6
		perW    = 12
	)
	reg := smallRegistry(t)

	runWorker := func(w int, rec *record.Recorder) {
		p := NewPageRankVM(reg, WithSeed(int64(w)), WithRecorder(rec))
		c := newCluster(3)
		for i := 0; i < perW; i++ {
			vm := newVM(w*1000+i, "[1,1]")
			pm, assign, err := p.Place(c, vm, nil)
			if err != nil {
				continue
			}
			if err := c.Host(pm, vm, assign); err != nil {
				panic(fmt.Sprintf("worker %d host: %v", w, err))
			}
		}
	}

	shared := record.NewCollector()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runWorker(w, shared)
		}(w)
	}
	wg.Wait()

	ds := shared.Decisions()
	if len(ds) != workers*perW {
		t.Fatalf("recorded %d decisions, want %d", len(ds), workers*perW)
	}
	for i := range ds {
		if ds[i].Seq != int64(i) {
			t.Fatalf("stream not seq-ordered at %d: seq %d", i, ds[i].Seq)
		}
	}

	// Per-worker determinism: each worker's subsequence equals its
	// solo run, whatever the interleaving was.
	for w := 0; w < workers; w++ {
		solo := record.NewCollector()
		runWorker(w, solo)
		want := solo.Decisions()
		var got []record.Decision
		for _, d := range ds {
			if d.VM/1000 == w {
				got = append(got, d)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("worker %d: %d decisions in shared stream, %d solo", w, len(got), len(want))
		}
		for i := range got {
			if !record.Equivalent(got[i], want[i]) {
				t.Fatalf("worker %d decision %d differs between shared and solo runs:\n shared %+v\n solo %+v",
					w, i, got[i], want[i])
			}
		}
	}
}

func TestRecorderFeedsPhaseHistograms(t *testing.T) {
	o := obs.New()
	rec := record.NewCollector()
	reg := smallRegistry(t)
	p := NewPageRankVM(reg, WithSeed(1), WithObserver(o), WithRecorder(rec))
	c := newCluster(2)
	for i := 0; i < 6; i++ {
		vm := newVM(i, "[1,1]")
		pm, assign, err := p.Place(c, vm, nil)
		if err != nil {
			break
		}
		if err := c.Host(pm, vm, assign); err != nil {
			t.Fatal(err)
		}
	}
	snap := o.Snapshot()
	for _, name := range []string{
		"placement.phase_scan_seconds",
		"placement.phase_check_seconds",
		"placement.phase_bind_seconds",
	} {
		h, ok := snap.Histograms[name]
		if !ok || h.Count != 6 {
			t.Fatalf("%s: count %d (present %v), want 6", name, h.Count, ok)
		}
	}
}
