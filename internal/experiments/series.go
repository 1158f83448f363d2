package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"pagerankvm/internal/placement"
	"pagerankvm/internal/sim"
)

// TimeSeries holds one simulated day's per-interval dynamics for every
// algorithm — the raw signal behind the aggregate figures (active PMs,
// migrations, overloads, utilization per 300 s interval).
type TimeSeries struct {
	Trace  string
	NumVMs int
	Steps  map[string][]sim.StepStats // algorithm -> per-step stats
}

// RunTimeSeries runs one seeded simulation per algorithm, recording
// every monitoring interval via the simulator's observer hook.
func RunTimeSeries(cfg SimConfig, numVMs int) (*TimeSeries, error) {
	cfg = cfg.withDefaults()
	in, err := newSimInputs(cfg.Rank)
	if err != nil {
		return nil, err
	}
	workloads, err := in.workloads(cfg.Trace, cfg.Workload, numVMs, cfg.Seed, sim.Config{}.Steps())
	if err != nil {
		return nil, err
	}
	out := &TimeSeries{
		Trace:  cfg.Trace,
		NumVMs: numVMs,
		Steps:  make(map[string][]sim.StepStats, len(AlgorithmNames)),
	}
	for _, name := range AlgorithmNames {
		var steps []sim.StepStats
		simCfg := sim.Config{
			UnderloadThreshold: cfg.Underload,
			Observer:           func(s sim.StepStats) { steps = append(steps, s) },
			Obs:                cfg.Obs,
		}
		if _, err := in.simulate(simCfg, name, cfg.PMsPerType, workloads,
			placement.WithSeed(cfg.Seed), placement.WithObserver(cfg.Obs)); err != nil {
			return nil, fmt.Errorf("experiments: series %s: %w", name, err)
		}
		out.Steps[name] = steps
	}
	return out, nil
}

// WriteCSV emits the time series in tidy form: one row per
// (algorithm, step).
func (ts *TimeSeries) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"trace", "num_vms", "algorithm", "step",
		"active_pms", "placed_vms", "migrations", "overloaded_pms", "violated_pms", "mean_cpu_util"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, alg := range AlgorithmNames {
		for _, s := range ts.Steps[alg] {
			rec := []string{
				ts.Trace,
				strconv.Itoa(ts.NumVMs),
				alg,
				strconv.Itoa(s.Step),
				strconv.Itoa(s.ActivePMs),
				strconv.Itoa(s.PlacedVMs),
				strconv.Itoa(s.Migrations),
				strconv.Itoa(s.OverloadedPMs),
				strconv.Itoa(s.ViolatedPMs),
				formatFloat(s.MeanCPUUtil),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
