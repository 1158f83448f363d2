package pagerankvm_test

// One benchmark per table and figure of the paper (see DESIGN.md §4
// for the experiment index), plus the ablation benchmarks A1-A5. The
// figure benchmarks run laptop-scale configurations and report the
// headline metric of the reproduced artifact via b.ReportMetric; the
// full-scale numbers in EXPERIMENTS.md come from cmd/prvm-exp.

import (
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"pagerankvm"
	"pagerankvm/internal/experiments"
	"pagerankvm/internal/mip"
	"pagerankvm/internal/obs"
	"pagerankvm/internal/opt"
	"pagerankvm/internal/placement"
	"pagerankvm/internal/ranktable"
	"pagerankvm/internal/resource"
	"pagerankvm/internal/testbed"
)

// --- Tables I-III ---

func BenchmarkTable1Catalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.WriteTable1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Catalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.WriteTable2(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3PowerModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.WriteTable3(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 1 and 2: profile ranking ---

func BenchmarkFigure1RankGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		table, err := experiments.PaperExampleTable(ranktable.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if table.Len() != 70 {
			b.Fatalf("table has %d profiles", table.Len())
		}
	}
}

func BenchmarkFigure2ProfileQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		comps, err := experiments.RunFigure2(ranktable.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range comps {
			if !c.Holds {
				b.Fatalf("paper ordering %v > %v broken", c.Better, c.Worse)
			}
		}
	}
}

// --- Figures 3, 5, 6, 7: simulation sweeps ---

// benchSimFigure runs a reduced single-point sweep and reports the
// PageRankVM and FF medians of the figure's metric.
func benchSimFigure(b *testing.B, traceName string, metric experiments.Metric) {
	b.Helper()
	var last *experiments.Sweep
	for i := 0; i < b.N; i++ {
		sweep, err := experiments.RunSimSweep(experiments.SimConfig{
			Trace:      traceName,
			NumVMs:     []int{200},
			Reps:       1,
			Seed:       1,
			PMsPerType: 100,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = sweep
	}
	reportCells(b, last, metric)
}

// reportCells reports the PageRankVM and FF medians of one metric of a
// single-point sweep.
func reportCells(b *testing.B, sweep *experiments.Sweep, metric experiments.Metric) {
	b.Helper()
	for _, c := range sweep.Cells {
		sum, ok := c.Summaries[metric]
		if !ok {
			continue
		}
		switch c.Algorithm {
		case "PageRankVM":
			b.ReportMetric(sum.Median, "prvm")
		case "FF":
			b.ReportMetric(sum.Median, "ff")
		}
	}
}

func BenchmarkFigure3aPMsPlanetLab(b *testing.B) {
	benchSimFigure(b, "planetlab", experiments.MetricPMs)
}

func BenchmarkFigure3bPMsGoogle(b *testing.B) {
	benchSimFigure(b, "google", experiments.MetricPMs)
}

func BenchmarkFigure5aEnergyPlanetLab(b *testing.B) {
	benchSimFigure(b, "planetlab", experiments.MetricEnergy)
}

func BenchmarkFigure5bEnergyGoogle(b *testing.B) {
	benchSimFigure(b, "google", experiments.MetricEnergy)
}

func BenchmarkFigure6aMigrationsPlanetLab(b *testing.B) {
	benchSimFigure(b, "planetlab", experiments.MetricMigrations)
}

func BenchmarkFigure6bMigrationsGoogle(b *testing.B) {
	benchSimFigure(b, "google", experiments.MetricMigrations)
}

func BenchmarkFigure7aSLOPlanetLab(b *testing.B) {
	benchSimFigure(b, "planetlab", experiments.MetricSLO)
}

func BenchmarkFigure7bSLOGoogle(b *testing.B) {
	benchSimFigure(b, "google", experiments.MetricSLO)
}

// --- Figures 4 and 8: testbed sweeps ---

func benchTestbedFigure(b *testing.B, metric experiments.Metric) {
	b.Helper()
	var last *experiments.Sweep
	for i := 0; i < b.N; i++ {
		sweep, err := experiments.RunTestbedSweep(experiments.TestbedConfig{
			NumJobs: []int{60},
			Reps:    1,
			Seed:    1,
			Steps:   360,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = sweep
	}
	reportCells(b, last, metric)
}

func BenchmarkFigure4aTestbedPMs(b *testing.B) {
	benchTestbedFigure(b, experiments.MetricPMs)
}

func BenchmarkFigure4bTestbedMigrations(b *testing.B) {
	benchTestbedFigure(b, experiments.MetricMigrations)
}

func BenchmarkFigure8TestbedSLO(b *testing.B) {
	benchTestbedFigure(b, experiments.MetricSLO)
}

// --- Ablations ---

// packWithRanker places a fixed batched stream and returns PMs used.
func packWithRanker(b *testing.B, reg *ranktable.Registry) int {
	b.Helper()
	cat, err := experiments.AmazonCatalog()
	if err != nil {
		b.Fatal(err)
	}
	placer := placement.NewPageRankVM(reg, placement.WithSeed(1))
	cluster := cat.BuildCluster(120)
	names := make([]string, 0)
	for _, vm := range experiments.AmazonVMTypes() {
		names = append(names, vm.Name)
	}
	rng := rand.New(rand.NewSource(17))
	mix := experiments.VMMix()
	id := 0
	for id < 300 {
		ty := experiments.SampleVMType(mix, names, rng.Float64())
		batch := 1 + rng.Intn(8)
		for j := 0; j < batch && id < 300; j++ {
			vm, err := cat.NewVM(id, ty)
			if err != nil {
				b.Fatal(err)
			}
			pm, assign, err := placer.Place(cluster, vm, nil)
			if errors.Is(err, placement.ErrNoCapacity) {
				id++
				continue
			}
			if err != nil {
				b.Fatal(err)
			}
			if err := cluster.Host(pm, vm, assign); err != nil {
				b.Fatal(err)
			}
			id++
		}
	}
	return cluster.MaxUsed
}

// A5: the three Algorithm 1 interpretations (see DESIGN.md).
func BenchmarkAblationRankMode(b *testing.B) {
	for _, mode := range []ranktable.Mode{
		ranktable.ModeAbsorption, ranktable.ModeReversePR, ranktable.ModeForwardPR,
	} {
		b.Run(mode.String(), func(b *testing.B) {
			cat, err := experiments.AmazonCatalog()
			if err != nil {
				b.Fatal(err)
			}
			reg, err := cat.BuildRegistry(ranktable.Options{Mode: mode})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			pms := 0
			for i := 0; i < b.N; i++ {
				pms = packWithRanker(b, reg)
			}
			b.ReportMetric(float64(pms), "pms")
		})
	}
}

// A1: joint versus factored ranking on a shape small enough for both.
func BenchmarkAblationJointVsFactored(b *testing.B) {
	shape := resource.MustShape(
		resource.Group{Name: "cpu", Dims: 4, Cap: 4},
		resource.Group{Name: "mem", Dims: 1, Cap: 8},
	)
	types := []resource.VMType{
		resource.NewVMType("a",
			resource.Demand{Group: "cpu", Units: []int{1, 1}},
			resource.Demand{Group: "mem", Units: []int{2}}),
		resource.NewVMType("b",
			resource.Demand{Group: "cpu", Units: []int{1, 1, 1, 1}},
			resource.Demand{Group: "mem", Units: []int{2}}),
	}
	b.Run("joint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ranktable.NewJoint(shape, types, ranktable.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("factored", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ranktable.NewFactored(shape, types, ranktable.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// A3: the dead-end discount (BPRU for the PageRank modes, the reward
// exponent for the absorption mode).
func BenchmarkAblationBPRU(b *testing.B) {
	for _, tt := range []struct {
		name string
		opts ranktable.Options
	}{
		{name: "reverse-pr-with-bpru", opts: ranktable.Options{Mode: ranktable.ModeReversePR}},
		{name: "reverse-pr-no-bpru", opts: ranktable.Options{Mode: ranktable.ModeReversePR, DisableBPRU: true}},
		{name: "absorption-exp8", opts: ranktable.Options{}},
		{name: "absorption-exp1", opts: ranktable.Options{RewardExponent: opt.F(1)}},
	} {
		b.Run(tt.name, func(b *testing.B) {
			var deadEnd, clean float64
			for i := 0; i < b.N; i++ {
				table, err := experiments.PaperExampleTable(tt.opts)
				if err != nil {
					b.Fatal(err)
				}
				deadEnd, _ = table.Score(resource.Vec{4, 3, 3, 3})
				clean, _ = table.Score(resource.Vec{3, 3, 2, 2})
			}
			b.ReportMetric(deadEnd, "dead-end-score")
			b.ReportMetric(clean, "clean-score")
		})
	}
}

// A2: full used-list scan versus the Section V-C 2-choice variant.
func BenchmarkAblation2Choice(b *testing.B) {
	for _, tt := range []struct {
		name string
		opts []placement.PageRankOption
	}{
		{name: "full-scan", opts: []placement.PageRankOption{placement.WithSeed(1)}},
		{name: "two-choice", opts: []placement.PageRankOption{placement.WithSeed(1), placement.WithTwoChoice()}},
	} {
		b.Run(tt.name, func(b *testing.B) {
			cat, err := experiments.AmazonCatalog()
			if err != nil {
				b.Fatal(err)
			}
			reg, err := cat.BuildRegistry(ranktable.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				placer := placement.NewPageRankVM(reg, tt.opts...)
				cluster := cat.BuildCluster(150)
				for id := 0; id < 400; id++ {
					vm, err := cat.NewVM(id, "m3.large")
					if err != nil {
						b.Fatal(err)
					}
					pm, assign, err := placer.Place(cluster, vm, nil)
					if err != nil {
						b.Fatal(err)
					}
					if err := cluster.Host(pm, vm, assign); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(cluster.MaxUsed), "pms")
			}
		})
	}
}

// A4: heuristics versus the exact branch-and-bound optimum.
func BenchmarkExactGap(b *testing.B) {
	shape := resource.MustShape(resource.Group{Name: "cpu", Dims: 4, Cap: 4})
	types := []resource.VMType{
		resource.NewVMType("[1,1]", resource.Demand{Group: "cpu", Units: []int{1, 1}}),
		resource.NewVMType("[1,1,1,1]", resource.Demand{Group: "cpu", Units: []int{1, 1, 1, 1}}),
	}
	newPMs := func() []*placement.PM {
		pms := make([]*placement.PM, 4)
		for i := range pms {
			pms[i] = placement.NewPM(i, "h", shape)
		}
		return pms
	}
	rng := rand.New(rand.NewSource(5))
	var vms []*placement.VM
	for i := 0; i < 9; i++ {
		vt := types[rng.Intn(len(types))]
		vms = append(vms, &placement.VM{
			ID: i, Type: vt.Name,
			Req: map[string]resource.VMType{"h": vt},
		})
	}
	optimal := 0
	for i := 0; i < b.N; i++ {
		sol, err := mip.Solve(newPMs(), vms, mip.Options{})
		if err != nil {
			b.Fatal(err)
		}
		optimal = sol.PMsUsed
	}
	b.ReportMetric(float64(optimal), "optimal-pms")
}

// Extension: underload consolidation (the standard CloudSim companion
// policy, off in the paper's setup) — energy with and without.
func BenchmarkExtensionConsolidation(b *testing.B) {
	cat, err := experiments.AmazonCatalog()
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, underload float64) {
		b.Helper()
		var energyKWh float64
		for i := 0; i < b.N; i++ {
			sweep, err := experiments.RunSimSweep(experiments.SimConfig{
				Trace:      "google",
				NumVMs:     []int{200},
				Reps:       1,
				Seed:       1,
				PMsPerType: 100,
				Underload:  underload,
			})
			if err != nil {
				b.Fatal(err)
			}
			c, _ := sweep.Cell("PageRankVM", 200)
			energyKWh = c.Summaries[experiments.MetricEnergy].Median
		}
		b.ReportMetric(energyKWh, "kwh")
	}
	_ = cat
	b.Run("off", func(b *testing.B) { run(b, 0) })
	b.Run("on-30pct", func(b *testing.B) { run(b, 0.3) })
}

// Extension: the network-aware decorator (the paper's future work)
// versus plain PageRankVM, measured by cross-rack traffic at equal
// workloads.
func BenchmarkExtensionNetworkAware(b *testing.B) {
	shape := resource.MustShape(resource.Group{Name: "cpu", Dims: 4, Cap: 4})
	vt := resource.NewVMType("[1,1]", resource.Demand{Group: "cpu", Units: []int{1, 1}})
	table, err := ranktable.NewJoint(shape, []resource.VMType{vt}, ranktable.Options{})
	if err != nil {
		b.Fatal(err)
	}
	reg := ranktable.NewRegistry()
	reg.Add("h", table)

	// 6 tenants of 4 communicating VMs each, arriving into a cluster
	// fragmented by earlier churn.
	var groups [][]int
	for tnt := 0; tnt < 6; tnt++ {
		var g []int
		for k := 0; k < 4; k++ {
			g = append(g, 1000+tnt*4+k)
		}
		groups = append(groups, g)
	}
	traffic := pagerankvm.TenantTraffic(groups, 1)

	run := func(b *testing.B, useNet bool) {
		b.Helper()
		var cross float64
		for i := 0; i < b.N; i++ {
			pms := make([]*placement.PM, 16)
			for j := range pms {
				pms[j] = placement.NewPM(j, "h", shape)
			}
			cluster := placement.NewCluster(pms)
			topo, err := pagerankvm.NewTopology(pms, 4)
			if err != nil {
				b.Fatal(err)
			}
			// Fragment the fleet: residual filler VMs left behind by
			// departed tenants, spread over every PM.
			rng := rand.New(rand.NewSource(11))
			fillerID := 0
			for _, pm := range pms {
				for k := 0; k < 1+rng.Intn(5); k++ {
					vm := &placement.VM{ID: fillerID, Type: vt.Name, Req: map[string]resource.VMType{"h": vt}}
					fillerID++
					demand, _ := vm.DemandOn("h")
					if assign := resource.GreedyAssign(pm.Shape, pm.Used(), demand); assign != nil {
						if err := cluster.Host(pm, vm, assign); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			inner := placement.NewPageRankVM(reg, placement.WithSeed(3))
			var placer placement.Placer = inner
			if useNet {
				placer = pagerankvm.NewNetworkAwarePlacer(inner, topo, traffic, 0.25)
			}
			// Tenants' requests interleave (k-th VM of every tenant,
			// then the next), the arrival pattern that scatters
			// rack-oblivious placement.
			for k := 0; k < 4; k++ {
				for _, g := range groups {
					id := g[k]
					vm := &placement.VM{ID: id, Type: vt.Name, Req: map[string]resource.VMType{"h": vt}}
					pm, assign, err := placer.Place(cluster, vm, nil)
					if err != nil {
						b.Fatal(err)
					}
					if err := cluster.Host(pm, vm, assign); err != nil {
						b.Fatal(err)
					}
				}
			}
			cross = pagerankvm.CrossRackTraffic(cluster, topo, traffic)
		}
		b.ReportMetric(cross, "cross-rack-traffic")
	}
	b.Run("plain", func(b *testing.B) { run(b, false) })
	b.Run("network-aware", func(b *testing.B) { run(b, true) })
}

// --- Micro-benchmarks of the core machinery ---

func BenchmarkPlacementsEnumeration(b *testing.B) {
	shape := resource.MustShape(
		resource.Group{Name: "cpu", Dims: 8, Cap: 4},
		resource.Group{Name: "mem", Dims: 1, Cap: 17},
		resource.Group{Name: "disk", Dims: 4, Cap: 31},
	)
	vt := resource.NewVMType("m3.xlarge",
		resource.Demand{Group: "cpu", Units: []int{1, 1, 1, 1}},
		resource.Demand{Group: "mem", Units: []int{4}},
		resource.Demand{Group: "disk", Units: []int{5, 5}},
	)
	p := resource.Vec{2, 1, 0, 3, 2, 1, 0, 4, 9, 10, 4, 0, 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := resource.Placements(shape, p, vt); len(out) == 0 {
			b.Fatal("no placements")
		}
	}
}

func BenchmarkRankTableLookup(b *testing.B) {
	table, err := experiments.PaperExampleTable(ranktable.Options{})
	if err != nil {
		b.Fatal(err)
	}
	p := resource.Vec{3, 1, 4, 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := table.Score(p); !ok {
			b.Fatal("lookup failed")
		}
	}
}

// liveHeapMB is the heap in use after two collections (the second
// frees what the first one's finalizers and pool victims released).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// BenchmarkFactoredRegistryBuildM3C3 is the cold build of the production
// registry — what every process start, workload set-up and LoadTable
// pays: the collections before each timed build empty the pooled wiring
// scratch, as in a fresh process, which also makes B/op independent of
// b.N — and, as retained-MB, the heap the finished registry keeps.
func BenchmarkFactoredRegistryBuildM3C3(b *testing.B) {
	cat, err := experiments.AmazonCatalog()
	if err != nil {
		b.Fatal(err)
	}
	var reg *ranktable.Registry
	var before float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		reg = nil
		before = liveHeapMB()
		b.StartTimer()
		if reg, err = cat.BuildRegistry(ranktable.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(liveHeapMB()-before, "retained-MB")
	runtime.KeepAlive(reg)
}

func BenchmarkPageRankVMPlaceDecision(b *testing.B) {
	cat, err := experiments.AmazonCatalog()
	if err != nil {
		b.Fatal(err)
	}
	reg, err := cat.BuildRegistry(ranktable.Options{})
	if err != nil {
		b.Fatal(err)
	}
	placer := placement.NewPageRankVM(reg, placement.WithSeed(1))
	cluster := cat.BuildCluster(60)
	// Pre-fill half the fleet.
	for id := 0; id < 200; id++ {
		vm, _ := cat.NewVM(id, "m3.large")
		pm, assign, err := placer.Place(cluster, vm, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := cluster.Host(pm, vm, assign); err != nil {
			b.Fatal(err)
		}
	}
	probe, _ := cat.NewVM(10_000, "c3.xlarge")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := placer.Place(cluster, probe, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPlaceWithObs shares the BenchmarkPageRankVMPlaceDecision setup
// so the observer-on/off pair is directly comparable to the baseline.
func benchPlaceWithObs(b *testing.B, observer *obs.Observer) {
	b.Helper()
	cat, err := experiments.AmazonCatalog()
	if err != nil {
		b.Fatal(err)
	}
	reg, err := cat.BuildRegistry(ranktable.Options{})
	if err != nil {
		b.Fatal(err)
	}
	placer := placement.NewPageRankVM(reg,
		placement.WithSeed(1), placement.WithObserver(observer))
	cluster := cat.BuildCluster(60)
	for id := 0; id < 200; id++ {
		vm, _ := cat.NewVM(id, "m3.large")
		pm, assign, err := placer.Place(cluster, vm, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := cluster.Host(pm, vm, assign); err != nil {
			b.Fatal(err)
		}
	}
	probe, _ := cat.NewVM(10_000, "c3.xlarge")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := placer.Place(cluster, probe, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// The disabled variant must stay within ~2% of the uninstrumented
// baseline (BenchmarkPageRankVMPlaceDecision): a nil observer reduces
// every instrument call to one branch.
func BenchmarkPlaceWithObsDisabled(b *testing.B) {
	benchPlaceWithObs(b, nil)
}

func BenchmarkPlaceWithObsEnabled(b *testing.B) {
	benchPlaceWithObs(b, obs.New())
}

func BenchmarkTestbedRoundTCP(b *testing.B) {
	reg, err := testbed.NewRegistry(ranktable.Options{})
	if err != nil {
		b.Fatal(err)
	}
	_ = reg
	ctrl, agentEnd, err := testbed.DialTCPPair()
	if err != nil {
		b.Fatal(err)
	}
	agent := testbed.NewAgent(0, testbed.PMShape(), agentEnd)
	agent.Start()
	b.Cleanup(func() {
		_ = ctrl.Send(testbed.Message{Kind: testbed.KindShutdown})
		_, _ = ctrl.Recv()
		agent.Wait()
		_ = ctrl.Close()
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctrl.Send(testbed.Message{Kind: testbed.KindTick, Step: i}); err != nil {
			b.Fatal(err)
		}
		if _, err := ctrl.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuickstartFacade(b *testing.B) {
	shape := pagerankvm.MustShape(pagerankvm.Group{Name: "cpu", Dims: 4, Cap: 4})
	types := []pagerankvm.VMType{
		pagerankvm.NewVMType("[1,1]", pagerankvm.Demand{Group: "cpu", Units: []int{1, 1}}),
	}
	table, err := pagerankvm.BuildJointTable(shape, types, pagerankvm.RankOptions{})
	if err != nil {
		b.Fatal(err)
	}
	reg := pagerankvm.NewRegistry()
	reg.Add("h", table)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		placer := pagerankvm.NewPageRankVM(reg)
		cluster := pagerankvm.NewCluster([]*pagerankvm.PM{pagerankvm.NewPM(0, "h", shape)})
		vm := &pagerankvm.VM{ID: 0, Type: "[1,1]", Req: map[string]pagerankvm.VMType{"h": types[0]}}
		pm, assign, err := placer.Place(cluster, vm, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := cluster.Host(pm, vm, assign); err != nil {
			b.Fatal(err)
		}
	}
}
