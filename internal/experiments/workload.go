package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"pagerankvm/internal/opt"
	"pagerankvm/internal/sim"
	"pagerankvm/internal/trace"
)

// WorkloadConfig parameterizes the VM request stream of a simulation
// run. The paper's setup only states that VM types were drawn from
// Table I and traces from PlanetLab/Google; the batching and tenant
// correlation reflect how cloud requests actually arrive (tenants
// deploy groups of same-type VMs whose load is correlated) and are the
// regime in which dimension-aware placement differs from naive
// packing. All knobs are documented in EXPERIMENTS.md.
type WorkloadConfig struct {
	// NumVMs is the number of VM requests.
	NumVMs int
	// Seed drives the type draws and traces.
	Seed int64
	// Steps is the trace length (monitoring intervals).
	Steps int
	// MaxBatch is the largest tenant batch (same-type consecutive
	// requests); default 10.
	MaxBatch int
	// TenantBursts parameterizes the shared per-tenant load surges
	// overlaid on each VM's base trace; zero value takes the
	// trace.BurstConfig defaults.
	TenantBursts trace.BurstConfig
	// Mix is the request distribution over VM type names; default
	// VMMix().
	Mix map[string]float64
	// ChurnFraction in [0,1] is the share of tenants whose lease
	// starts after the initial allocation and may end before the
	// horizon (arrivals/departures during the day). Nil selects the
	// default 0.5; opt.F(0) disables churn.
	ChurnFraction *float64
	// MeanLeaseSteps is the mean lease duration of churning tenants;
	// 0 selects Steps/3.
	MeanLeaseSteps int
}

func (w WorkloadConfig) withDefaults() WorkloadConfig {
	if w.MaxBatch == 0 {
		w.MaxBatch = 10
	}
	if w.Mix == nil {
		w.Mix = VMMix()
	}
	churn := opt.Or(w.ChurnFraction, 0.5)
	if churn < 0 {
		churn = 0
	}
	w.ChurnFraction = &churn
	if w.MeanLeaseSteps == 0 {
		w.MeanLeaseSteps = w.Steps / 3
	}
	return w
}

// tenantIDBase offsets tenant series ids away from VM ids in the
// generators' seed space.
const tenantIDBase = 1 << 24

// GenWorkloads builds the VM request stream with traces: tenants
// arrive with geometric-ish batch sizes of one VM type each, and every
// VM's utilization overlays the tenant's shared burst series on its
// own. The tenant structure (types, batches, lease windows) is drawn
// from cfg.Seed first; trace.OverlaidSeries then fills the series,
// each depending only on (seed, id).
func (c *Catalog) GenWorkloads(gen trace.Generator, cfg WorkloadConfig) ([]sim.Workload, error) {
	cfg = cfg.withDefaults()
	if cfg.NumVMs <= 0 || cfg.Steps <= 0 {
		return nil, fmt.Errorf("experiments: workload needs NumVMs and Steps, got %d/%d", cfg.NumVMs, cfg.Steps)
	}
	names := make([]string, 0, len(c.VMs))
	for _, vm := range c.VMs {
		names = append(names, vm.Name)
	}
	sort.Strings(names)

	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]sim.Workload, 0, cfg.NumVMs)
	burstIDs := make([]int, 0, cfg.NumVMs)
	tenant := 0
	for len(out) < cfg.NumVMs {
		typeName := SampleVMType(cfg.Mix, names, rng.Float64())
		batch := 1 + rng.Intn(cfg.MaxBatch)

		// The whole tenant shares one lease window.
		start, end := 0, 0
		if cfg.Steps > 1 && rng.Float64() < *cfg.ChurnFraction {
			start = rng.Intn(cfg.Steps * 7 / 10)
			lease := 1 + int(rng.ExpFloat64()*float64(cfg.MeanLeaseSteps))
			if e := start + lease; e < cfg.Steps {
				end = e
			}
		}

		for b := 0; b < batch && len(out) < cfg.NumVMs; b++ {
			vm, err := c.NewVM(len(out), typeName)
			if err != nil {
				return nil, err
			}
			out = append(out, sim.Workload{VM: vm, Start: start, End: end})
			burstIDs = append(burstIDs, tenantIDBase+tenant)
		}
		tenant++
	}
	for id, s := range trace.OverlaidSeries(gen, cfg.Steps, cfg.Seed, cfg.TenantBursts, burstIDs) {
		out[id].Trace = s
	}
	return out, nil
}
