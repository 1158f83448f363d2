package experiments

import (
	"time"

	"pagerankvm/internal/obs"
	"pagerankvm/internal/placement"
	"pagerankvm/internal/ranktable"
	"pagerankvm/internal/testbed"
)

// TestbedConfig parameterizes the GENI-emulation sweeps behind
// Figures 4 and 8.
type TestbedConfig struct {
	// NumJobs are the sweep points; the paper reports 100-300.
	NumJobs []int
	// Reps is the repetition count per point.
	Reps int
	// Seed is the base seed.
	Seed int64
	// NumPMs is the emulated instance count (paper: 10).
	NumPMs int
	// Steps is the experiment length (paper: 4 h at 10 s = 1440).
	Steps int
	// Transport selects in-memory pipes (default) or loopback TCP.
	Transport testbed.Transport
	// CallTimeout, CallRetries and RetryBackoff configure the
	// controller's fault-tolerant call path (see testbed.Config).
	CallTimeout  time.Duration
	CallRetries  *int
	RetryBackoff time.Duration
	// Faults, when non-nil, wraps every controller-side connection in
	// a seeded deterministic fault injector (the -faults flag of
	// cmd/prvm-exp).
	Faults *testbed.FaultConfig
	// Rank tunes the Profile→score table.
	Rank ranktable.Options
	// Obs, when non-nil, receives runtime telemetry from the table
	// builds, the placer and the controller (the -obsaddr/-metrics-out
	// hook of cmd/prvm-exp).
	Obs *obs.Observer
}

func (c TestbedConfig) withDefaults() TestbedConfig {
	if len(c.NumJobs) == 0 {
		c.NumJobs = []int{100, 200, 300}
	}
	if c.Reps == 0 {
		c.Reps = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.NumPMs == 0 {
		c.NumPMs = testbed.DefaultPMs
	}
	if c.Steps == 0 {
		c.Steps = 1440
	}
	if c.Rank.Obs == nil {
		c.Rank.Obs = c.Obs
	}
	return c
}

// RunTestbedSweep runs the GENI emulation for every algorithm and job
// count.
func RunTestbedSweep(cfg TestbedConfig) (*Sweep, error) {
	cfg = cfg.withDefaults()
	reg, err := testbed.NewRegistry(cfg.Rank)
	if err != nil {
		return nil, err
	}
	faults := cfg.Faults
	if faults != nil && faults.Obs == nil {
		f := *faults
		f.Obs = cfg.Obs
		faults = &f
	}
	s := &Sweep{
		Source:  "GENI testbed emulation",
		Unit:    "jobs",
		Metrics: []Metric{MetricPMs, MetricMigrations, MetricSLO},
	}
	err = s.run(cfg.NumJobs, cfg.Reps, cfg.Seed, func(n int, seed int64) (func(string) ([]float64, error), error) {
		jobs, err := testbed.GenJobs(testbed.NewJobVM, testbed.JobConfig{NumJobs: n, Steps: cfg.Steps, Seed: seed})
		if err != nil {
			return nil, err
		}
		return func(alg string) ([]float64, error) {
			placer, evictor := newAlgorithm(alg, reg, placement.WithSeed(seed), placement.WithObserver(cfg.Obs))
			h, err := testbed.LaunchWithFaults(cfg.NumPMs, cfg.Transport, faults)
			if err != nil {
				return nil, err
			}
			ctrl, err := testbed.NewController(testbed.Config{
				Steps:        cfg.Steps,
				CallTimeout:  cfg.CallTimeout,
				CallRetries:  cfg.CallRetries,
				RetryBackoff: cfg.RetryBackoff,
				Obs:          cfg.Obs,
			}, h.Cluster(), placer, evictor, h.Conns(), jobs)
			if err != nil {
				return nil, err
			}
			res, err := ctrl.Run()
			if err != nil {
				return nil, err
			}
			h.Close()
			return []float64{float64(res.PMsUsed), float64(res.Migrations), res.SLOViolationPct}, nil
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}
