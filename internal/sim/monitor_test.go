package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"pagerankvm/internal/opt"
	"pagerankvm/internal/placement"
	"pagerankvm/internal/ranktable"
	"pagerankvm/internal/resource"
	"pagerankvm/internal/trace"
)

// oracleCPU is the monitoring pass as the simulator first computed it:
// the hosted ids sorted, each VM's trace looked up by id and clamped by
// Series.At, the products summed per dimension in that order.
func oracleCPU(pm *placement.PM, step int, group string, traces map[int]trace.Series) []float64 {
	gi := pm.Shape.GroupIndex(group)
	if gi < 0 {
		return nil
	}
	lo, hi := pm.Shape.GroupRange(gi)
	vms := pm.VMs()
	ids := make([]int, 0, len(vms))
	for id := range vms {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	load := make([]float64, hi-lo)
	for _, id := range ids {
		u := traces[id].At(step)
		for _, du := range vms[id].Assign {
			if du.Dim >= lo && du.Dim < hi {
				load[du.Dim-lo] += float64(du.Units) * u
			}
		}
	}
	return load
}

// checkingEvictor compares the monitoring pass with the oracle on the
// overloaded PM before every victim choice, mid-relief.
type checkingEvictor struct {
	placement.Evictor
	check func(pm *placement.PM)
}

func (e checkingEvictor) SelectVictim(pm *placement.PM, overloaded []int) (int, bool) {
	e.check(pm)
	return e.Evictor.SelectVictim(pm, overloaded)
}

// TestActualCPUMatchesOracle holds the step-major trace matrix and the
// ordered hosted set to the computation they replaced, bit for bit, on
// every PM at the end of every step (for that step and the next) and on
// every overloaded PM mid-relief. The trajectories churn, relieve
// overloads, consolidate and rebalance; VM ids are sparse and shuffled,
// and some traces are shorter than the horizon or empty.
func TestActualCPUMatchesOracle(t *testing.T) {
	table, err := ranktable.NewJoint(smallShape(), []resource.VMType{
		smallVMType("[1,1]"), smallVMType("[1,1,1,1]"),
	}, ranktable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := ranktable.NewRegistry()
	reg.Add(pmSmall, table)

	var total Result
	compared := 0
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const steps = 48
		numVMs := 20 + rng.Intn(20)
		gen := trace.Google{Seed: seed, Mean: opt.F(0.8)}
		ids := rng.Perm(10 * numVMs)[:numVMs]
		traces := map[int]trace.Series{}
		var workloads []Workload
		for i, id := range ids {
			id = 3*id + 7
			name := "[1,1]"
			if rng.Intn(3) == 0 {
				name = "[1,1,1,1]"
			}
			var tr trace.Series
			switch i % 5 {
			case 0: // empty: the VM never loads its PM
			case 1:
				tr = gen.Series(id, 1+rng.Intn(steps/2)) // ends early: its last sample holds
			default:
				tr = gen.Series(id, steps)
			}
			traces[id] = tr
			w := Workload{VM: newVM(id, name), Trace: tr}
			if rng.Intn(2) == 0 {
				w.Start = rng.Intn(steps - 1)
				if rng.Intn(2) == 0 {
					w.End = w.Start + 1 + rng.Intn(steps-w.Start)
				}
			}
			workloads = append(workloads, w)
		}

		prvm := placement.NewPageRankVM(reg, placement.WithSeed(seed))
		c := newCluster(12)
		var s *Simulation
		cur := 0
		check := func(pm *placement.PM, step int) {
			t.Helper()
			want := oracleCPU(pm, step, DefaultCPUGroup, traces)
			got := s.actualCPU(pm, step)
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d pm %d: load %v, oracle %v", seed, step, pm.ID, got, want)
			}
			for d := range want {
				if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
					t.Fatalf("seed %d step %d pm %d dim %d: load %v, oracle %v", seed, step, pm.ID, d, got[d], want[d])
				}
			}
			compared++
		}
		cfg := shortCfg(steps)
		cfg.UnderloadThreshold = 0.2
		cfg.RebalanceEvery = 3
		cfg.Rebalance.DrainBelow = 0.3
		cfg.Observer = func(st StepStats) {
			for _, pm := range c.PMs() {
				check(pm, st.Step)
				if st.Step+1 < steps {
					check(pm, st.Step+1)
				}
			}
			cur = st.Step + 1
		}
		ev := checkingEvictor{Evictor: placement.RankEvictor{Placer: prvm}, check: func(pm *placement.PM) { check(pm, cur) }}
		if s, err = New(cfg, c, prvm, ev, models(), workloads); err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		total.Migrations += res.Migrations
		total.Consolidations += res.Consolidations
		total.RebalanceMoves += res.RebalanceMoves
		total.OverloadEvents += res.OverloadEvents
	}
	t.Logf("%d loads compared; totals %+v", compared, total)
	if total.OverloadEvents == 0 || total.Migrations == 0 || total.Consolidations == 0 || total.RebalanceMoves == 0 {
		t.Fatalf("the trajectories must exercise relief, consolidation and rebalancing: %+v", total)
	}
}
