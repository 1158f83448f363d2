package experiments

import (
	"pagerankvm/internal/energy"
	"pagerankvm/internal/obs"
	"pagerankvm/internal/placement"
	"pagerankvm/internal/ranktable"
	"pagerankvm/internal/sim"
	"pagerankvm/internal/trace"
)

// SimConfig parameterizes the simulation sweeps behind Figures 3, 5,
// 6 and 7.
type SimConfig struct {
	// Trace is "planetlab" or "google".
	Trace string
	// NumVMs are the sweep points; the paper uses 1000, 2000, 3000.
	NumVMs []int
	// Reps is the number of repetitions per point (the paper: 100).
	Reps int
	// Seed is the base seed; repetition r of a point uses Seed+r.
	Seed int64
	// PMsPerType sizes the inventory (per Table II type).
	PMsPerType int
	// Workload tunes the request stream; NumVMs/Seed/Steps are
	// overridden per point.
	Workload WorkloadConfig
	// Rank tunes the Profile→score tables.
	Rank ranktable.Options
	// Underload, when positive, enables the simulator's dynamic
	// consolidation at that utilization threshold (an extension; the
	// paper's setup leaves it off).
	Underload float64
	// Obs, when non-nil, receives runtime telemetry from every layer
	// of the sweep: table builds, the PageRankVM placer, and the
	// simulator (the -obsaddr/-metrics-out hook of cmd/prvm-exp).
	Obs *obs.Observer
}

func (c SimConfig) withDefaults() SimConfig {
	if c.Trace == "" {
		c.Trace = "planetlab"
	}
	if len(c.NumVMs) == 0 {
		c.NumVMs = []int{1000, 2000, 3000}
	}
	if c.Reps == 0 {
		c.Reps = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.PMsPerType == 0 {
		c.PMsPerType = 400
	}
	if c.Rank.Obs == nil {
		c.Rank.Obs = c.Obs
	}
	return c
}

// RunSimSweep runs the paper's simulation grid: every algorithm at
// every VM count, Reps times each, and summarizes the four metrics.
func RunSimSweep(cfg SimConfig) (*Sweep, error) {
	cfg = cfg.withDefaults()
	in, err := newSimInputs(cfg.Rank)
	if err != nil {
		return nil, err
	}
	s := &Sweep{
		Trace:   cfg.Trace,
		Source:  cfg.Trace + " trace",
		Unit:    "VMs",
		Metrics: []Metric{MetricPMs, MetricEnergy, MetricMigrations, MetricSLO},
	}
	err = s.run(cfg.NumVMs, cfg.Reps, cfg.Seed, func(n int, seed int64) (func(string) ([]float64, error), error) {
		workloads, err := in.workloads(cfg.Trace, cfg.Workload, n, seed, sim.Config{}.Steps())
		if err != nil {
			return nil, err
		}
		return func(alg string) ([]float64, error) {
			res, err := in.simulate(sim.Config{UnderloadThreshold: cfg.Underload, Obs: cfg.Obs},
				alg, cfg.PMsPerType, workloads, placement.WithSeed(seed), placement.WithObserver(cfg.Obs))
			return []float64{float64(res.PMsUsed), res.EnergyKWh, float64(res.Migrations), res.SLOViolationPct}, err
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// simInputs is what every simulated run over the Amazon catalog
// shares: the catalog, its rank tables and its hosts' power models.
type simInputs struct {
	cat    *Catalog
	reg    *ranktable.Registry
	models map[string]*energy.Model
}

// newSimInputs builds the catalog's rank tables with opts and looks up
// the power model of every PM type.
func newSimInputs(opts ranktable.Options) (*simInputs, error) {
	cat, err := AmazonCatalog()
	if err != nil {
		return nil, err
	}
	reg, err := cat.BuildRegistry(opts)
	if err != nil {
		return nil, err
	}
	models := make(map[string]*energy.Model, len(cat.PMs))
	for _, pm := range cat.PMs {
		m, err := energy.ByName(pm.Power)
		if err != nil {
			return nil, err
		}
		models[pm.Name] = m
	}
	return &simInputs{cat: cat, reg: reg, models: models}, nil
}

// workloads generates one run's request stream: n VMs over steps
// monitoring intervals, seeded seed, tuned by w, with utilization from
// the named trace.
func (in *simInputs) workloads(traceName string, w WorkloadConfig, n int, seed int64, steps int) ([]sim.Workload, error) {
	gen, err := trace.ByName(traceName, seed)
	if err != nil {
		return nil, err
	}
	w.NumVMs, w.Seed, w.Steps = n, seed, steps
	return in.cat.GenWorkloads(gen, w)
}

// simulate runs one algorithm over the workloads on a fresh cluster of
// pmsPerType PMs per type; opts configure the PageRankVM placer.
// Placement never mutates the workloads, so runs may share them.
func (in *simInputs) simulate(cfg sim.Config, alg string, pmsPerType int, workloads []sim.Workload, opts ...placement.PageRankOption) (sim.Result, error) {
	placer, evictor := newAlgorithm(alg, in.reg, opts...)
	s, err := sim.New(cfg, in.cat.BuildCluster(pmsPerType), placer, evictor, in.models, workloads)
	if err != nil {
		return sim.Result{}, err
	}
	return s.Run()
}
