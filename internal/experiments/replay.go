package experiments

// Decision recording and replay (DESIGN.md §11). A recording's header
// carries the full deterministic input of a seeded PageRankVM
// simulation — trace, seed, VM count, inventory size, horizon — so a
// later build can reconstruct the run bit-for-bit and diff its
// decision stream against the recorded one. cmd/prvm-replay drives
// this for golden regressions; cmd/prvm-exp's -record flag produces
// the recordings.

import (
	"fmt"
	"time"

	"pagerankvm/internal/deschedule"
	"pagerankvm/internal/obs/record"
	"pagerankvm/internal/placement"
	"pagerankvm/internal/ranktable"
	"pagerankvm/internal/sim"
	"pagerankvm/internal/trace"
)

// simMeta normalises the header of a recorded simulation run (kind
// "sim"): algorithm "PageRankVM" and the defaults the run uses —
// planetlab, seed 1, 200 VMs, 40 PMs per type and the simulator's 24 h
// horizon. It rejects a header this build cannot replay. Recording and
// replay both go through it, so what a recording's header says is what
// runs.
func simMeta(m record.RunMeta) (record.RunMeta, error) {
	if m.Kind != "sim" {
		return m, fmt.Errorf("experiments: recording kind %q is not replayable (want \"sim\")", m.Kind)
	}
	if m.Algorithm == "" {
		m.Algorithm = "PageRankVM"
	}
	if m.Algorithm != "PageRankVM" {
		return m, fmt.Errorf("experiments: recorded algorithm %q is not replayable", m.Algorithm)
	}
	if m.Trace == "" {
		m.Trace = "planetlab"
	}
	if m.Seed == 0 {
		m.Seed = 1
	}
	if m.NumVMs == 0 {
		m.NumVMs = 200
	}
	if m.PMsPerType == 0 {
		m.PMsPerType = 40
	}
	if m.Steps == 0 {
		m.Steps = sim.Config{}.Steps()
	}
	if _, err := trace.ByName(m.Trace, m.Seed); err != nil {
		return m, fmt.Errorf("experiments: recording header: %w", err)
	}
	return m, nil
}

// runRecorded runs the seeded PageRankVM simulation a normalised
// header describes over the Amazon catalog, with rec attached to every
// layer: rank-table builds, the placer (decision stream + phase
// timings), and the simulator (tick spans).
func runRecorded(m record.RunMeta, rec *record.Recorder) (sim.Result, error) {
	in, err := newSimInputs(ranktable.Options{Recorder: rec})
	if err != nil {
		return sim.Result{}, err
	}
	workloads, err := in.workloads(m.Trace, WorkloadConfig{}, m.NumVMs, m.Seed, m.Steps)
	if err != nil {
		return sim.Result{}, err
	}
	scfg := sim.Config{
		Horizon:        time.Duration(m.Steps) * sim.DefaultInterval,
		Recorder:       rec,
		RebalanceEvery: m.RebalanceEvery,
		Rebalance: deschedule.Config{
			MaxMovesPerRound: m.RebalanceBudget,
			MaxMovesPerPM:    m.RebalancePMBudget,
			DrainBelow:       m.RebalanceDrainBelow,
		},
	}
	return in.simulate(scfg, "PageRankVM", m.PMsPerType, workloads,
		placement.WithSeed(m.Seed), placement.WithRecorder(rec))
}

// Replay reconstructs the run a recording header describes and returns
// the decision and span streams the current code produces for it.
// Diffing the returned decisions against the recording's is the golden
// regression `prvm-replay -verify` performs.
func Replay(meta record.RunMeta) ([]record.Decision, []record.Span, sim.Result, error) {
	meta, err := simMeta(meta)
	if err != nil {
		return nil, nil, sim.Result{}, err
	}
	rec := record.NewCollector()
	res, err := runRecorded(meta, rec)
	if err != nil {
		return nil, nil, sim.Result{}, err
	}
	if err := rec.Err(); err != nil {
		return nil, nil, sim.Result{}, err
	}
	return rec.Decisions(), rec.Spans(), res, nil
}

// RecordToFile runs the simulation meta describes (kind "sim"; zero
// fields take simMeta's defaults) and writes the recording to path
// (gzip-compressed when path ends in ".gz"), its header the normalised
// meta, returning the sim result and the number of decisions captured.
func RecordToFile(path string, meta record.RunMeta) (sim.Result, int64, error) {
	meta, err := simMeta(meta)
	if err != nil {
		return sim.Result{}, 0, err
	}
	rec, err := record.Create(path, meta)
	if err != nil {
		return sim.Result{}, 0, err
	}
	res, err := runRecorded(meta, rec)
	ndec, _ := rec.Counts()
	if cerr := rec.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return sim.Result{}, 0, err
	}
	return res, ndec, nil
}
