package testbed

import (
	"testing"
	"time"

	"pagerankvm/internal/energy"
	"pagerankvm/internal/opt"
	"pagerankvm/internal/placement"
	"pagerankvm/internal/sim"
)

// noVictim is an evictor that never names a victim, so overloaded PMs
// keep their jobs in both monitors.
type noVictim struct{}

func (noVictim) Name() string                                  { return "none" }
func (noVictim) SelectVictim(*placement.PM, []int) (int, bool) { return 0, false }

// TestMonitorMatchesSimulator runs one job stream through the testbed
// controller (no faults, in-memory transport) and through the
// simulator, both with PageRankVM and an evictor that never moves a
// job. With the shared lease schedule and classifier they must agree
// on every placement and monitoring count.
func TestMonitorMatchesSimulator(t *testing.T) {
	const steps = 120
	var sawOverload, sawViolation, sawReject bool
	for _, tc := range []struct {
		pms, jobs int
		seed      int64
	}{{4, 80, 1}, {3, 100, 2}, {6, 120, 3}} {
		gen := func() []Job {
			jobs, err := GenJobs(NewJobVM, JobConfig{NumJobs: tc.jobs, Steps: steps, Seed: tc.seed,
				MeanLeaseSteps: steps / 3, WideShare: opt.F(0.8)})
			if err != nil {
				t.Fatal(err)
			}
			return jobs
		}

		placer, _ := prvmStack(t)
		h, err := Launch(tc.pms, TransportInMemory)
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := NewController(Config{Steps: steps}, h.Cluster(), placer, noVictim{}, h.Conns(), gen())
		if err != nil {
			t.Fatal(err)
		}
		tb, err := ctrl.Run()
		if err != nil {
			t.Fatal(err)
		}
		h.Close()

		placer, _ = prvmStack(t)
		pms := make([]*placement.PM, tc.pms)
		for i := range pms {
			pms[i] = placement.NewPM(i, PMType, PMShape())
		}
		s, err := sim.New(sim.Config{Interval: time.Second, Horizon: steps * time.Second},
			placement.NewCluster(pms), placer, noVictim{},
			map[string]*energy.Model{PMType: energy.E52670()}, gen())
		if err != nil {
			t.Fatal(err)
		}
		sr, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}

		got := [6]float64{float64(tb.PMsUsed), float64(tb.Rejected), float64(tb.ActivePMSteps),
			float64(tb.ViolatedPMSteps), float64(tb.OverloadEvents), tb.SLOViolationPct}
		want := [6]float64{float64(sr.PMsUsed), float64(sr.Rejected), float64(sr.ActivePMSteps),
			float64(sr.ViolatedPMSteps), float64(sr.OverloadEvents), sr.SLOViolationPct}
		if got != want {
			t.Errorf("%+v: testbed [PMs rejected active violated overloads SLO%%] = %v, simulator %v", tc, got, want)
		}
		sawOverload = sawOverload || sr.OverloadEvents > 0
		sawViolation = sawViolation || sr.ViolatedPMSteps > 0
		sawReject = sawReject || sr.Rejected > 0
	}
	if !sawOverload || !sawViolation || !sawReject {
		t.Fatalf("runs too mild to compare: overloads %v, violations %v, rejections %v", sawOverload, sawViolation, sawReject)
	}
}
