package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"pagerankvm/internal/energy"
	"pagerankvm/internal/experiments"
	"pagerankvm/internal/placement"
	"pagerankvm/internal/ranktable"
)

// env is what every workload shares: the paper's catalog (Tables I and
// II), its Table III power models, and a scratch directory for the
// data the program under test writes.
type env struct {
	cat    *experiments.Catalog
	models map[string]*energy.Model
	// vmNames are the catalog VM type names in sorted order — the
	// order experiments.SampleVMType expects.
	vmNames []string
	mix     map[string]float64
	// scratch is removed when the run ends; every DataDir lives in it.
	scratch string
}

// newEnv builds the shared fixtures and creates a fresh scratch
// directory under base.
func newEnv(base string) (*env, error) {
	cat, err := experiments.AmazonCatalog()
	if err != nil {
		return nil, err
	}
	e := &env{cat: cat, models: map[string]*energy.Model{}, mix: experiments.VMMix()}
	for _, pm := range cat.PMs {
		m, err := energy.ByName(pm.Power)
		if err != nil {
			return nil, err
		}
		e.models[pm.Name] = m
	}
	for _, vm := range cat.VMs {
		e.vmNames = append(e.vmNames, vm.Name)
	}
	sort.Strings(e.vmNames)
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, fmt.Errorf("scratch base: %w", err)
	}
	if e.scratch, err = os.MkdirTemp(base, "run-"); err != nil {
		return nil, fmt.Errorf("scratch dir: %w", err)
	}
	return e, nil
}

// cleanup removes the scratch directory.
func (e *env) cleanup() error { return os.RemoveAll(e.scratch) }

// dataDir returns a fresh, empty directory under the scratch dir.
func (e *env) dataDir(name string) (string, error) {
	dir := filepath.Join(e.scratch, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// coldRegistry builds the rank-table registry with a fresh cache and
// default options — what a starting daemon or simulation pays.
func (e *env) coldRegistry() (*ranktable.Registry, error) {
	return e.cat.BuildRegistry(ranktable.Options{})
}

// vmType draws one VM type name from the catalog mix.
func (e *env) vmType(rng *rand.Rand) string {
	return experiments.SampleVMType(e.mix, e.vmNames, rng.Float64())
}

// vmTypes draws n VM type names from the catalog mix.
func (e *env) vmTypes(rng *rand.Rand, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = e.vmType(rng)
	}
	return out
}

// cpuUnits returns how many CPU units one VM of vmType requests on a
// PM of pmType (0 when the pairing is unknown).
func (e *env) cpuUnits(pmType, vmType string) int {
	d, ok := e.cat.Demand(pmType, vmType)
	if !ok {
		return 0
	}
	n := 0
	for _, dem := range d.Demands {
		if dem.Group == experiments.GroupCPU {
			for _, u := range dem.Units {
				n += u
			}
		}
	}
	return n
}

// fleetKWh is the energy an inventory would draw over 24 h holding its
// current placement: each active PM at its Table III power for its
// requested CPU share (cpu maps active PM type -> requested CPU units
// per PM of that type). It is the static counterpart of the
// simulator's trace-driven Result.EnergyKWh.
func (e *env) fleetKWh(cpu map[string][]int) float64 {
	total := 0.0
	types := make([]string, 0, len(cpu))
	for t := range cpu {
		types = append(types, t)
	}
	sort.Strings(types) // fixed float accumulation order
	for _, t := range types {
		shape, ok := e.cat.Shape(t)
		if !ok {
			continue
		}
		gi := shape.GroupIndex(experiments.GroupCPU)
		lo, hi := shape.GroupRange(gi)
		capUnits := float64(shape.Group(gi).Cap * (hi - lo))
		for _, units := range cpu[t] {
			total += e.models[t].Power(float64(units)/capUnits) * 24 / 1000
		}
	}
	return total
}

// clusterKWh is fleetKWh over a library-level cluster.
func (e *env) clusterKWh(c *placement.Cluster) float64 {
	cpu := map[string][]int{}
	for _, pm := range c.UsedPMs() {
		gi := pm.Shape.GroupIndex(experiments.GroupCPU)
		lo, hi := pm.Shape.GroupRange(gi)
		units := 0
		for d := lo; d < hi; d++ {
			units += pm.Used()[d]
		}
		cpu[pm.Type] = append(cpu[pm.Type], units)
	}
	return e.fleetKWh(cpu)
}
