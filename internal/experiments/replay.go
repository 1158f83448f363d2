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

// RecordConfig is the minimal deterministic input of one recorded
// PageRankVM simulation run — exactly the fields a recording's header
// must carry for `prvm-replay -verify` to reconstruct it.
type RecordConfig struct {
	// Trace is "planetlab" or "google" (default planetlab).
	Trace string
	// Seed drives workload generation, traces and tie-breaking.
	Seed int64
	// NumVMs is the request count (default 200).
	NumVMs int
	// PMsPerType sizes the inventory per Table II type (default 40).
	PMsPerType int
	// Steps is the horizon in monitoring intervals (default: the
	// simulator's 24 h / 300 s).
	Steps int
	// RebalanceEvery, when positive, enables the descheduler: one
	// rebalance round every that many monitoring intervals. Rebalance
	// moves are part of decision identity (each is a release+place op
	// pair in the recording), so the header must carry the full
	// descheduler configuration.
	RebalanceEvery int
	// RebalanceBudget is the per-round migration budget
	// (deschedule.Config.MaxMovesPerRound; 0 = engine default).
	RebalanceBudget int
	// RebalancePMBudget caps per-source moves per round
	// (deschedule.Config.MaxMovesPerPM; 0 = engine default).
	RebalancePMBudget int
	// RebalanceDrainBelow is the drain-pass fill threshold
	// (deschedule.Config.DrainBelow; 0 disables the drain pass).
	RebalanceDrainBelow float64
}

func (c RecordConfig) withDefaults() RecordConfig {
	if c.Trace == "" {
		c.Trace = "planetlab"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.NumVMs == 0 {
		c.NumVMs = 200
	}
	if c.PMsPerType == 0 {
		c.PMsPerType = 40
	}
	if c.Steps == 0 {
		c.Steps = sim.Config{}.Steps()
	}
	return c
}

// Meta renders the config as a recording header, the inverse of
// ConfigFromMeta.
func (c RecordConfig) Meta() record.RunMeta {
	c = c.withDefaults()
	return record.RunMeta{
		Kind:                "sim",
		Trace:               c.Trace,
		Seed:                c.Seed,
		NumVMs:              c.NumVMs,
		PMsPerType:          c.PMsPerType,
		Steps:               c.Steps,
		Algorithm:           "PageRankVM",
		RebalanceEvery:      c.RebalanceEvery,
		RebalanceBudget:     c.RebalanceBudget,
		RebalancePMBudget:   c.RebalancePMBudget,
		RebalanceDrainBelow: c.RebalanceDrainBelow,
	}
}

// ConfigFromMeta reconstructs the run config from a recording header,
// rejecting recordings this build cannot replay.
func ConfigFromMeta(m record.RunMeta) (RecordConfig, error) {
	if m.Kind != "sim" {
		return RecordConfig{}, fmt.Errorf("experiments: recording kind %q is not replayable (want \"sim\")", m.Kind)
	}
	if m.Algorithm != "" && m.Algorithm != "PageRankVM" {
		return RecordConfig{}, fmt.Errorf("experiments: recorded algorithm %q is not replayable", m.Algorithm)
	}
	cfg := RecordConfig{
		Trace:               m.Trace,
		Seed:                m.Seed,
		NumVMs:              m.NumVMs,
		PMsPerType:          m.PMsPerType,
		Steps:               m.Steps,
		RebalanceEvery:      m.RebalanceEvery,
		RebalanceBudget:     m.RebalanceBudget,
		RebalancePMBudget:   m.RebalancePMBudget,
		RebalanceDrainBelow: m.RebalanceDrainBelow,
	}.withDefaults()
	if _, err := trace.ByName(cfg.Trace, cfg.Seed); err != nil {
		return RecordConfig{}, fmt.Errorf("experiments: recording header: %w", err)
	}
	return cfg, nil
}

// RunRecorded runs one seeded PageRankVM simulation over the Amazon
// catalog with rec attached to every layer: rank-table builds, the
// placer (decision stream + phase timings), and the simulator (tick
// spans). rec may be nil, in which case this is just a plain seeded
// run — useful for timing the replay itself.
func RunRecorded(cfg RecordConfig, rec *record.Recorder) (sim.Result, error) {
	cfg = cfg.withDefaults()
	in, err := newSimInputs(ranktable.Options{Recorder: rec})
	if err != nil {
		return sim.Result{}, err
	}
	workloads, err := in.workloads(cfg.Trace, WorkloadConfig{}, cfg.NumVMs, cfg.Seed, cfg.Steps)
	if err != nil {
		return sim.Result{}, err
	}
	scfg := sim.Config{
		Horizon:        time.Duration(cfg.Steps) * sim.DefaultInterval,
		Recorder:       rec,
		RebalanceEvery: cfg.RebalanceEvery,
		Rebalance: deschedule.Config{
			MaxMovesPerRound: cfg.RebalanceBudget,
			MaxMovesPerPM:    cfg.RebalancePMBudget,
			DrainBelow:       cfg.RebalanceDrainBelow,
		},
	}
	return in.simulate(scfg, "PageRankVM", cfg.PMsPerType, workloads,
		placement.WithSeed(cfg.Seed), placement.WithRecorder(rec))
}

// Replay reconstructs the run a recording header describes and returns
// the decision and span streams the current code produces for it.
// Diffing the returned decisions against the recording's is the golden
// regression `prvm-replay -verify` performs.
func Replay(meta record.RunMeta) ([]record.Decision, []record.Span, sim.Result, error) {
	cfg, err := ConfigFromMeta(meta)
	if err != nil {
		return nil, nil, sim.Result{}, err
	}
	rec := record.NewCollector()
	res, err := RunRecorded(cfg, rec)
	if err != nil {
		return nil, nil, sim.Result{}, err
	}
	if err := rec.Err(); err != nil {
		return nil, nil, sim.Result{}, err
	}
	return rec.Decisions(), rec.Spans(), res, nil
}

// RecordToFile runs the config and writes the recording to path
// (gzip-compressed when path ends in ".gz"), returning the sim result
// and the number of decisions captured.
func RecordToFile(path string, cfg RecordConfig) (sim.Result, int64, error) {
	cfg = cfg.withDefaults()
	rec, err := record.Create(path, cfg.Meta())
	if err != nil {
		return sim.Result{}, 0, err
	}
	res, err := RunRecorded(cfg, rec)
	ndec, _ := rec.Counts()
	if cerr := rec.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return sim.Result{}, 0, err
	}
	return res, ndec, nil
}
