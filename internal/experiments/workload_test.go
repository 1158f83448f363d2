package experiments

import (
	"strings"
	"testing"

	"pagerankvm/internal/opt"
	"pagerankvm/internal/trace"
)

func TestGenWorkloads(t *testing.T) {
	cat, err := AmazonCatalog()
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.PlanetLab{Seed: 3}
	wl, err := cat.GenWorkloads(gen, WorkloadConfig{NumVMs: 200, Seed: 1, Steps: 48})
	if err != nil {
		t.Fatal(err)
	}
	if len(wl) != 200 {
		t.Fatalf("len = %d", len(wl))
	}
	churned := 0
	seen := map[int]bool{}
	for _, w := range wl {
		if seen[w.VM.ID] {
			t.Fatalf("duplicate vm id %d", w.VM.ID)
		}
		seen[w.VM.ID] = true
		if len(w.Trace) != 48 {
			t.Fatalf("trace length %d", len(w.Trace))
		}
		for _, u := range w.Trace {
			if u < 0 || u > 1 {
				t.Fatalf("trace sample %v out of range", u)
			}
		}
		if w.Start < 0 || w.Start >= 48 {
			t.Fatalf("start %d out of range", w.Start)
		}
		if w.End != 0 && w.End <= w.Start {
			t.Fatalf("lease [%d,%d) invalid", w.Start, w.End)
		}
		if w.Start > 0 || w.End > 0 {
			churned++
		}
	}
	// Default churn fraction is 0.5 of tenants; some churn must appear.
	if churned == 0 {
		t.Fatal("no churned VMs with default config")
	}
}

func TestGenWorkloadsDeterministic(t *testing.T) {
	cat, err := AmazonCatalog()
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.Google{Seed: 9}
	a, err := cat.GenWorkloads(gen, WorkloadConfig{NumVMs: 50, Seed: 4, Steps: 24})
	if err != nil {
		t.Fatal(err)
	}
	b, err := cat.GenWorkloads(gen, WorkloadConfig{NumVMs: 50, Seed: 4, Steps: 24})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].VM.Type != b[i].VM.Type || a[i].Start != b[i].Start || a[i].End != b[i].End {
			t.Fatalf("workload %d differs", i)
		}
		for j := range a[i].Trace {
			if a[i].Trace[j] != b[i].Trace[j] {
				t.Fatalf("trace %d differs at %d", i, j)
			}
		}
	}
}

func TestGenWorkloadsNoChurn(t *testing.T) {
	cat, err := AmazonCatalog()
	if err != nil {
		t.Fatal(err)
	}
	wl, err := cat.GenWorkloads(trace.Constant{Level: 0.5},
		WorkloadConfig{NumVMs: 40, Seed: 2, Steps: 24, ChurnFraction: opt.F(0)})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range wl {
		if w.Start != 0 || w.End != 0 {
			t.Fatalf("churn with ChurnFraction=0: [%d,%d)", w.Start, w.End)
		}
	}
}

func TestGenWorkloadsValidation(t *testing.T) {
	cat, err := AmazonCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.GenWorkloads(trace.Constant{}, WorkloadConfig{}); err == nil {
		t.Fatal("accepted empty config")
	}
}

// A small end-to-end sweep: orderings are checked by the full harness;
// here we only assert the plumbing produces complete, well-formed
// grids.
func TestRunSimSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sweep, err := RunSimSweep(SimConfig{
		Trace:      "google",
		NumVMs:     []int{60},
		Reps:       2,
		Seed:       3,
		PMsPerType: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Cells) != len(AlgorithmNames) {
		t.Fatalf("cells = %d", len(sweep.Cells))
	}
	for _, c := range sweep.Cells {
		if pms := c.Summaries[MetricPMs]; pms.N != 2 {
			t.Fatalf("cell %s has %d reps", c.Algorithm, pms.N)
		}
		if pms := c.Summaries[MetricPMs]; pms.Median <= 0 {
			t.Fatalf("cell %s median %v", c.Algorithm, pms.Median)
		}
		if e := c.Summaries[MetricEnergy]; e.Median <= 0 {
			t.Fatalf("cell %s energy %v", c.Algorithm, e.Median)
		}
	}
	var sb strings.Builder
	for _, m := range []Metric{MetricPMs, MetricEnergy, MetricMigrations, MetricSLO} {
		if err := sweep.WriteFigure(&sb, m, "smoke"); err != nil {
			t.Fatal(err)
		}
	}
	out := sb.String()
	for _, alg := range AlgorithmNames {
		if !strings.Contains(out, alg) {
			t.Fatalf("figure output missing %s:\n%s", alg, out)
		}
	}
}

func TestRunTestbedSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sweep, err := RunTestbedSweep(TestbedConfig{
		NumJobs: []int{20},
		Reps:    2,
		Seed:    3,
		NumPMs:  4,
		Steps:   60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Cells) != len(AlgorithmNames) {
		t.Fatalf("cells = %d", len(sweep.Cells))
	}
	var sb strings.Builder
	for _, m := range []Metric{MetricPMs, MetricMigrations, MetricSLO} {
		if err := sweep.WriteFigure(&sb, m, "smoke"); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(sb.String(), "PageRankVM") {
		t.Fatalf("output:\n%s", sb.String())
	}
	// Energy is n/a on the testbed.
	sb.Reset()
	if err := sweep.WriteFigure(&sb, MetricEnergy, "smoke"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "n/a") {
		t.Fatalf("energy should be n/a:\n%s", sb.String())
	}
}

func TestMetricString(t *testing.T) {
	wants := map[Metric]string{
		MetricPMs:        "PMs used",
		MetricEnergy:     "energy (kWh)",
		MetricMigrations: "VM migrations",
		MetricSLO:        "SLO violations (%)",
	}
	for m, want := range wants {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q", int(m), got)
		}
	}
}

func TestSweepCSVWriters(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sim, err := RunSimSweep(SimConfig{
		Trace: "google", NumVMs: []int{40}, Reps: 1, Seed: 2, PMsPerType: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, sim); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "trace,algorithm,num_vms,metric,median,p1,p99,reps") {
		t.Fatalf("missing header:\n%s", out)
	}
	// 4 algorithms x 4 metrics + header.
	if got := strings.Count(strings.TrimSpace(out), "\n"); got != 16 {
		t.Fatalf("csv rows = %d, want 16", got)
	}

	tb, err := RunTestbedSweep(TestbedConfig{
		NumJobs: []int{10}, Reps: 1, Seed: 2, NumPMs: 3, Steps: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := WriteCSV(&sb, tb); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(strings.TrimSpace(sb.String()), "\n"); got != 12 {
		t.Fatalf("testbed csv rows = %d, want 12", got)
	}
}

// The paper's headline result as a regression guard: PageRankVM needs
// far fewer migrations and SLO violations than First Fit under the
// evaluation workload. Run at reduced scale; skipped in -short.
func TestHeadlineMigrationOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sweep, err := RunSimSweep(SimConfig{
		Trace:      "google",
		NumVMs:     []int{400},
		Reps:       3,
		Seed:       7,
		PMsPerType: 160,
	})
	if err != nil {
		t.Fatal(err)
	}
	get := func(alg string, m Metric) float64 {
		c, ok := sweep.Cell(alg, 400)
		if !ok {
			t.Fatalf("no cell for %s", alg)
		}
		return c.Summaries[m].Median
	}
	prvmMigr, ffMigr := get("PageRankVM", MetricMigrations), get("FF", MetricMigrations)
	if prvmMigr*1.5 >= ffMigr {
		t.Errorf("migration headline lost: PageRankVM %v vs FF %v", prvmMigr, ffMigr)
	}
	prvmSLO, ffSLO := get("PageRankVM", MetricSLO), get("FF", MetricSLO)
	if prvmSLO > ffSLO {
		t.Errorf("SLO headline lost: PageRankVM %v vs FF %v", prvmSLO, ffSLO)
	}
}

func TestRunTimeSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ts, err := RunTimeSeries(SimConfig{Trace: "google", Seed: 5, PMsPerType: 25}, 50)
	if err != nil {
		t.Fatal(err)
	}
	wantSteps := 288
	for _, alg := range AlgorithmNames {
		steps := ts.Steps[alg]
		if len(steps) != wantSteps {
			t.Fatalf("%s recorded %d steps, want %d", alg, len(steps), wantSteps)
		}
		if steps[10].ActivePMs <= 0 {
			t.Fatalf("%s has no active PMs at step 10", alg)
		}
	}
	var sb strings.Builder
	if err := ts.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	rows := strings.Count(strings.TrimSpace(sb.String()), "\n")
	if rows != wantSteps*len(AlgorithmNames) {
		t.Fatalf("csv rows = %d, want %d", rows, wantSteps*len(AlgorithmNames))
	}
}
