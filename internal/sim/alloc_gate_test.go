//go:build !race

package sim

// The runtime half of actualCPU's //prvm:hotpath contract, beside the
// repository's other allocation gates and excluded under -race for the
// same reason: the race runtime skews AllocsPerRun.

import (
	"testing"

	"pagerankvm/internal/placement"
	"pagerankvm/internal/resource"
	"pagerankvm/internal/trace"
)

func TestActualCPUZeroAllocs(t *testing.T) {
	c := newCluster(1)
	pm := c.PMs()[0]
	gen := trace.Google{Seed: 4}
	var workloads []Workload
	for i := 0; i < 6; i++ {
		workloads = append(workloads, Workload{VM: newVM(10*i, "[1,1]"), Trace: gen.Series(i, 8)})
	}
	s, err := New(shortCfg(8), c, placement.FirstFit{}, placement.MMTEvictor{}, models(), workloads)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads {
		assign := resource.Assignment{{Dim: i % 4, Units: 1}, {Dim: (i + 1) % 4, Units: 1}}
		if err := c.Host(pm, w.VM, assign); err != nil {
			t.Fatal(err)
		}
	}
	step := 0
	allocs := testing.AllocsPerRun(100, func() {
		if load := s.actualCPU(pm, step%8); len(load) != 4 {
			t.Fatalf("load %v, want 4 dims", load)
		}
		step++
	})
	if allocs != 0 {
		t.Fatalf("actualCPU allocates %.1f times per call, want 0", allocs)
	}
}
