package pagerankvm_test

import (
	"testing"

	"pagerankvm/internal/energy"
	"pagerankvm/internal/experiments"
	"pagerankvm/internal/placement"
	"pagerankvm/internal/ranktable"
	"pagerankvm/internal/sim"
	"pagerankvm/internal/trace"
)

// BenchmarkSimDay prices the simulator's own layer at the size of the
// paper's §VI evaluation (3 000 VMs, 400 PMs per type, 24 h of
// PlanetLab traces at 5-minute steps): sim.New, which builds the
// step-major trace matrix, plus Run — the initial allocation and 288
// monitoring passes with their overload relief. The stream, rank tables
// and power models are built once; each iteration gets a fresh cluster
// and placer, built off the clock.
func BenchmarkSimDay(b *testing.B) {
	const vms, pmsPerType, steps = 3000, 400, 288
	cat, err := experiments.AmazonCatalog()
	if err != nil {
		b.Fatal(err)
	}
	reg, err := cat.BuildRegistry(ranktable.Options{})
	if err != nil {
		b.Fatal(err)
	}
	models := map[string]*energy.Model{}
	for _, pm := range cat.PMs {
		if models[pm.Name], err = energy.ByName(pm.Power); err != nil {
			b.Fatal(err)
		}
	}
	stream, err := cat.GenWorkloads(trace.PlanetLab{Seed: 1}, experiments.WorkloadConfig{
		NumVMs: vms, Seed: 1, Steps: steps,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{Horizon: steps * sim.DefaultInterval}
	var first sim.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cluster := cat.BuildCluster(pmsPerType)
		placer := placement.NewPageRankVM(reg, placement.WithSeed(1))
		b.StartTimer()
		s, err := sim.New(cfg, cluster, placer, placement.RankEvictor{Placer: placer}, models, stream)
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			first = res
		} else if res != first {
			b.Fatalf("run %d gave %+v, run 0 %+v", i, res, first)
		}
	}
}

// BenchmarkGenWorkloads prices building one sim-paper-sized request
// stream (3 000 VMs, 24 h of PlanetLab traces at 5-minute steps, seed
// 1): the serial tenant draws plus the parallel series fill.
func BenchmarkGenWorkloads(b *testing.B) {
	cat, err := experiments.AmazonCatalog()
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.WorkloadConfig{NumVMs: 3000, Seed: 1, Steps: 288}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cat.GenWorkloads(trace.PlanetLab{Seed: 1}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
