package testbed

import (
	"strings"
	"testing"

	"pagerankvm/internal/placement"
	"pagerankvm/internal/ranktable"
	"pagerankvm/internal/resource"
	"pagerankvm/internal/trace"
)

func prvmStack(t *testing.T) (placement.Placer, placement.Evictor) {
	t.Helper()
	reg, err := NewRegistry(ranktable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := placement.NewPageRankVM(reg)
	return p, placement.RankEvictor{Placer: p}
}

func constJob(id int, typeIdx int, level float64, steps, start, end int) Job {
	vt := JobTypes()[typeIdx]
	return Job{
		VM:    NewJobVM(id, vt),
		Trace: trace.Constant{Level: level}.Series(id, steps),
		Start: start,
		End:   end,
	}
}

func runExperiment(t *testing.T, tr Transport, jobs []Job, steps int,
	placer placement.Placer, evictor placement.Evictor) (Result, *Harness) {
	t.Helper()
	h, err := Launch(2, tr)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(Config{Steps: steps}, h.Cluster(), placer, evictor, h.Conns(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctrl.Run()
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	return res, h
}

func TestControllerPlacesAndDeparts(t *testing.T) {
	placer, evictor := prvmStack(t)
	const steps = 6
	jobs := []Job{
		constJob(0, 0, 0.5, steps, 0, 3), // departs at step 3
		constJob(1, 1, 0.5, steps, 1, 0), // arrives at 1, runs forever
	}
	res, h := runExperiment(t, TransportInMemory, jobs, steps, placer, evictor)
	if res.Rejected != 0 {
		t.Fatalf("rejected = %d", res.Rejected)
	}
	if res.PMsUsed != 1 {
		t.Fatalf("PMsUsed = %d, want 1", res.PMsUsed)
	}
	// Only job 1 remains at the end.
	if got := h.Cluster().NumVMs(); got != 1 {
		t.Fatalf("NumVMs = %d, want 1", got)
	}
	if _, placed := h.Cluster().Locate(1); !placed {
		t.Fatal("job 1 missing at the end")
	}
}

func TestControllerOverloadMigrates(t *testing.T) {
	placer, evictor := prvmStack(t)
	const steps = 4
	// Four wide jobs at full heat pack one PM's cores to 4.0 > 3.6:
	// overload, one kill-and-continue per round until relieved.
	jobs := []Job{
		constJob(0, 1, 1.0, steps, 0, 0),
		constJob(1, 1, 1.0, steps, 0, 0),
		constJob(2, 1, 1.0, steps, 0, 0),
		constJob(3, 1, 1.0, steps, 0, 0),
	}
	res, h := runExperiment(t, TransportInMemory, jobs, steps, placer, evictor)
	if res.Migrations == 0 {
		t.Fatalf("no migrations: %+v", res)
	}
	if res.PMsUsed != 2 {
		t.Fatalf("PMsUsed = %d, want 2", res.PMsUsed)
	}
	if got := h.Cluster().NumVMs(); got != 4 {
		t.Fatalf("job lost: NumVMs = %d", got)
	}
}

func TestControllerSLOAccounting(t *testing.T) {
	placer, evictor := prvmStack(t)
	const steps = 3
	// 8 wide jobs fill both PMs completely at heat 1.0: every active
	// PM-interval is a violation and there is nowhere to migrate.
	var jobs []Job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, constJob(i, 1, 1.0, steps, 0, 0))
	}
	res, _ := runExperiment(t, TransportInMemory, jobs, steps, placer, evictor)
	if res.SLOViolationPct != 100 {
		t.Fatalf("SLO = %v, want 100", res.SLOViolationPct)
	}
	if res.FailedMoves == 0 {
		t.Fatal("expected failed moves with a full testbed")
	}
}

func TestControllerRejectsWhenFull(t *testing.T) {
	placer, evictor := prvmStack(t)
	const steps = 2
	var jobs []Job
	// 9 wide cold jobs: capacity is 8.
	for i := 0; i < 9; i++ {
		jobs = append(jobs, constJob(i, 1, 0.1, steps, 0, 0))
	}
	res, _ := runExperiment(t, TransportInMemory, jobs, steps, placer, evictor)
	if res.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", res.Rejected)
	}
}

// The controller's mirror and the agents' own state must agree.
func TestControllerMirrorConsistency(t *testing.T) {
	placer, evictor := prvmStack(t)
	h, err := Launch(2, TransportInMemory)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 8
	jobs, err := GenJobs(NewJobVM, JobConfig{NumJobs: 12, Steps: steps, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(Config{Steps: steps}, h.Cluster(), placer, evictor, h.Conns(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Run(); err != nil {
		t.Fatal(err)
	}
	// Before shutdown completes the agents have exited; compare final
	// mirror state against what each agent last reported via a fresh
	// probe... agents are down now, so instead verify the mirror's
	// internal consistency: every placed job sits on exactly one PM.
	seen := map[int]int{}
	for _, pm := range h.Cluster().PMs() {
		for id := range pm.VMs() {
			seen[id]++
		}
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("job %d on %d PMs", id, n)
		}
	}
	h.Close()
}

func TestControllerDeterministic(t *testing.T) {
	run := func() Result {
		placer, evictor := prvmStack(t)
		const steps = 30
		jobs, err := GenJobs(NewJobVM, JobConfig{NumJobs: 20, Steps: steps, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		res, _ := runExperiment(t, TransportInMemory, jobs, steps, placer, evictor)
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestControllerOverTCP(t *testing.T) {
	placer, evictor := prvmStack(t)
	const steps = 6
	jobs := []Job{
		constJob(0, 0, 0.5, steps, 0, 0),
		constJob(1, 1, 0.6, steps, 2, 5),
	}
	res, h := runExperiment(t, TransportTCP, jobs, steps, placer, evictor)
	if res.Rejected != 0 {
		t.Fatalf("rejected = %d", res.Rejected)
	}
	if got := h.Cluster().NumVMs(); got != 1 {
		t.Fatalf("NumVMs = %d, want 1 (job 1 departed)", got)
	}
}

func TestNewControllerValidation(t *testing.T) {
	placer, evictor := prvmStack(t)
	h, err := Launch(1, TransportInMemory)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctrl, _ := NewController(Config{Steps: 1}, h.Cluster(), placer, evictor, h.Conns(), nil)
		_, _ = ctrl.Run()
		h.Close()
	}()
	if _, err := NewController(Config{}, nil, placer, evictor, h.Conns(), nil); err == nil {
		t.Error("accepted nil cluster")
	}
	if _, err := NewController(Config{}, h.Cluster(), placer, evictor, map[int]Conn{}, nil); err == nil {
		t.Error("accepted missing conns")
	}
	dup := []Job{
		{VM: NewJobVM(1, JobTypes()[0])},
		{VM: NewJobVM(1, JobTypes()[0])},
	}
	if _, err := NewController(Config{}, h.Cluster(), placer, evictor, h.Conns(), dup); err == nil {
		t.Error("accepted duplicate jobs")
	}
	if _, err := NewController(Config{}, h.Cluster(), placer, evictor, h.Conns(), []Job{{}}); err == nil {
		t.Error("accepted job without VM")
	}
	if _, err := NewController(Config{}, h.Cluster(), placer, evictor, h.Conns(), []Job{{VM: NewJobVM(1, JobTypes()[0]), Start: 3, End: 3}}); err == nil {
		t.Error("accepted an empty lease")
	}
	noCPU := placement.NewCluster([]*placement.PM{placement.NewPM(0, PMType, resource.MustShape(resource.Group{Name: "mem", Dims: 1, Cap: 4}))})
	if _, err := NewController(Config{}, noCPU, placer, evictor, h.Conns(), nil); err == nil || !strings.Contains(err.Error(), "no group") {
		t.Errorf("accepted a PM without the CPU group: %v", err)
	}
}

func TestLaunchValidation(t *testing.T) {
	if _, err := Launch(0, TransportInMemory); err == nil {
		t.Fatal("accepted zero PMs")
	}
}

func TestGenJobsValidation(t *testing.T) {
	if _, err := GenJobs(NewJobVM, JobConfig{}); err == nil {
		t.Fatal("accepted empty config")
	}
	jobs, err := GenJobs(NewJobVM, JobConfig{NumJobs: 30, Steps: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 30 {
		t.Fatalf("len = %d", len(jobs))
	}
	for _, j := range jobs {
		if j.Start < 0 || j.Start >= 100 {
			t.Fatalf("bad start %d", j.Start)
		}
		if j.End != 0 && j.End <= j.Start {
			t.Fatalf("bad lease [%d,%d)", j.Start, j.End)
		}
		if len(j.Trace) != 100 {
			t.Fatalf("trace len %d", len(j.Trace))
		}
	}
}
