package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"pagerankvm/internal/obs"
	"pagerankvm/internal/opt"
	"pagerankvm/internal/placement"
	"pagerankvm/internal/ranktable"
	"pagerankvm/internal/resource"
	"pagerankvm/internal/trace"
)

// enumOnly hides a ranker's FastRanker methods, so a placer over it
// scores every candidate by enumeration: the differential oracle.
type enumOnly struct{ ranktable.Ranker }

// smallRegistry builds the one-PM-type registry of the A/B runs; with
// enumerate set the ranker is wrapped in enumOnly.
func smallRegistry(t *testing.T, opts ranktable.Options, enumerate bool) *ranktable.Registry {
	t.Helper()
	table, err := ranktable.NewJoint(smallShape(), []resource.VMType{
		smallVMType("[1,1]"), smallVMType("[1,1,1,1]"),
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	var ranker ranktable.Ranker = table
	if enumerate {
		ranker = enumOnly{table}
	}
	reg := ranktable.NewRegistry()
	reg.Add(pmSmall, ranker)
	return reg
}

// runEngine is runSeeded with the scoring path chosen, for A/B-ing the
// id-indexed fast path against enumeration over a full simulation
// (churn, overload migrations, evictions).
func runEngine(t *testing.T, seed int64, enumerate bool) (Result, []obs.Event) {
	t.Helper()
	reg := smallRegistry(t, ranktable.Options{}, enumerate)

	o := obs.New()
	ring := obs.NewRingSink(1 << 14)
	o.SetSink(ring)
	prvm := placement.NewPageRankVM(reg, placement.WithSeed(seed), placement.WithObserver(o))

	const steps = 48
	rng := rand.New(rand.NewSource(seed))
	gen := trace.Google{Seed: seed, Mean: opt.F(0.55)}
	var workloads []Workload
	for i := 0; i < 24; i++ {
		name := "[1,1]"
		if rng.Intn(2) == 0 {
			name = "[1,1,1,1]"
		}
		w := Workload{VM: newVM(i, name), Trace: gen.Series(i, steps)}
		if rng.Intn(2) == 0 {
			w.Start = rng.Intn(steps / 2)
			if rng.Intn(2) == 0 {
				w.End = w.Start + 1 + rng.Intn(steps/2)
			}
		}
		workloads = append(workloads, w)
	}

	s, err := New(shortCfg(steps), newCluster(8), prvm, placement.RankEvictor{Placer: prvm}, models(), workloads)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	events := ring.Events()
	for i := range events {
		events[i].Time = time.Time{}
	}
	return res, events
}

// TestSimFastPathEquivalence runs the whole simulator — initial
// placement, interval monitoring, overload evictions and migrations —
// through the fast path and through enumeration and requires the
// identical Result and the identical placement-decision trace (every
// chosen PM, every score, every profile count, in order). One field is
// the engine's own: pms_scanned is the whole used list when
// enumerating and its open part on the fast path (DESIGN.md §16 "The
// open list"), so there it is at most the slow path's.
func TestSimFastPathEquivalence(t *testing.T) {
	for _, seed := range []int64{3, 7, 21} {
		fastRes, fastEvents := runEngine(t, seed, false)
		slowRes, slowEvents := runEngine(t, seed, true)
		for i := 0; i < len(fastEvents) && i < len(slowEvents); i++ {
			ff, sf := fastEvents[i].Fields, slowEvents[i].Fields
			for k := 0; k < len(ff) && k < len(sf); k++ {
				if ff[k].Key != "pms_scanned" || sf[k].Key != "pms_scanned" {
					continue
				}
				if ff[k].Val.(int) > sf[k].Val.(int) {
					t.Fatalf("seed %d event %d: fast path scanned %v PMs of a used list of %v", seed, i, ff[k].Val, sf[k].Val)
				}
				ff[k].Val = sf[k].Val
			}
		}

		if !reflect.DeepEqual(fastRes, slowRes) {
			t.Errorf("seed %d: simulation Result differs between fast and slow paths:\n  fast: %+v\n  slow: %+v",
				seed, fastRes, slowRes)
		}
		if len(fastEvents) == 0 {
			t.Fatalf("seed %d: no trace events captured", seed)
		}
		if !reflect.DeepEqual(fastEvents, slowEvents) {
			n := len(fastEvents)
			if len(slowEvents) < n {
				n = len(slowEvents)
			}
			for i := 0; i < n; i++ {
				if !reflect.DeepEqual(fastEvents[i], slowEvents[i]) {
					t.Fatalf("seed %d: decision traces diverge at event %d:\n  fast: %+v\n  slow: %+v",
						seed, i, fastEvents[i], slowEvents[i])
				}
			}
			t.Fatalf("seed %d: decision traces differ in length: %d vs %d", seed, len(fastEvents), len(slowEvents))
		}
	}
}
