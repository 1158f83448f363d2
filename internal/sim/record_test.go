package sim

import (
	"math/rand"
	"testing"

	"pagerankvm/internal/obs/record"
	"pagerankvm/internal/opt"
	"pagerankvm/internal/placement"
	"pagerankvm/internal/ranktable"
	"pagerankvm/internal/trace"
)

// recordedSimRun runs a seeded churny simulation with a collector
// recorder on both the placer and the sim config, and returns the
// captured streams.
func recordedSimRun(t *testing.T, seed int64, enumerate bool) ([]record.Decision, []record.Span) {
	t.Helper()
	rec := record.NewCollector()
	reg := smallRegistry(t, ranktable.Options{Recorder: rec}, enumerate)
	prvm := placement.NewPageRankVM(reg, placement.WithSeed(seed), placement.WithRecorder(rec))

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

	cfg := shortCfg(steps)
	cfg.Recorder = rec
	s, err := New(cfg, newCluster(8), prvm, placement.RankEvictor{Placer: prvm}, models(), workloads)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return rec.Decisions(), rec.Spans()
}

// TestSimRecordingFastPathDiffClean mirrors TestSimFastPathEquivalence
// at the recording layer: full-sim decision streams through the fast
// path and through enumeration must diff clean.
func TestSimRecordingFastPathDiffClean(t *testing.T) {
	for _, seed := range []int64{3, 21} {
		fastD, _ := recordedSimRun(t, seed, false)
		slowD, _ := recordedSimRun(t, seed, true)
		if len(fastD) == 0 {
			t.Fatalf("seed %d: no decisions recorded", seed)
		}
		sum := record.Diff(fastD, slowD)
		if !sum.Clean() {
			t.Fatalf("seed %d: fast vs enumerated sim recordings diverge: %+v (first: %+v)",
				seed, sum, sum.First)
		}
	}
}

func TestSimRecordingSpans(t *testing.T) {
	const steps = 48
	_, spans := recordedSimRun(t, 3, false)
	counts := map[string]int{}
	for _, s := range spans {
		counts[s.Name]++
		if s.Ns < 0 {
			t.Fatalf("span %s has negative duration %d", s.Name, s.Ns)
		}
	}
	if counts["sim.tick"] != steps {
		t.Fatalf("sim.tick spans = %d, want %d", counts["sim.tick"], steps)
	}
	if counts["sim.run"] != 1 {
		t.Fatalf("sim.run spans = %d, want 1", counts["sim.run"])
	}
	if counts["ranktable.build"] == 0 {
		t.Fatal("no ranktable.build span recorded")
	}
	// Step labels let phase summaries group tick latencies.
	for _, s := range spans {
		if s.Name == "sim.tick" && s.Labels["step"] == "" {
			t.Fatalf("sim.tick span missing step label: %+v", s)
		}
	}
}
