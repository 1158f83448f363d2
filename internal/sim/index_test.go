package sim

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"pagerankvm/internal/placement"
	"pagerankvm/internal/resource"
	"pagerankvm/internal/trace"
)

// stressIDs returns n ids that stress an idIndex over n keys: negative
// ids, ids at the ends of the int range, and three probe chains of ids
// sharing a home slot — one also sharing their low 32 bits, one
// starting in the table's final slot so its probes wrap.
func stressIDs(t *testing.T, n int) []int {
	t.Helper()
	x := newIDIndex(n)
	ids := []int{-1, -2, -1 << 40, math.MinInt, math.MinInt + 1, math.MaxInt, math.MaxInt - 1, 0}
	seen := map[int]bool{}
	for _, id := range ids {
		seen[id] = true
	}
	chain := func(home int, from, step int) {
		for id, found := from, 0; found < 3; id += step {
			if x.home(id) == home && !seen[id] {
				ids, seen[id] = append(ids, id), true
				found++
			}
		}
	}
	chain(x.home(-1), -3, -1)
	chain(x.home(math.MaxInt), math.MaxInt-1<<32, -1<<32) // same low 32 bits as MaxInt and -1
	chain(len(x.slots)-1, 1<<50, 1)
	if len(ids) > n {
		t.Fatalf("%d stress ids for %d keys", len(ids), n)
	}
	for id := 1; len(ids) < n; id += 7919 {
		if !seen[id] {
			ids, seen[id] = append(ids, id), true
		}
	}
	return ids
}

// TestIndexMatchesOracle holds the monitoring pass to oracleCPU on the
// ids a hash index can get wrong — negative, extreme, colliding and
// wrapping, for VMs and PMs alike — with every VM hosted by hand, plus
// one hosted VM that has no workload and so no column (oracleCPU sees
// an empty trace: +0). One VM moves between PMs every step, so the
// per-PM terms are rebuilt on both sides of each move.
func TestIndexMatchesOracle(t *testing.T) {
	const n, steps = 24, 12
	ids := stressIDs(t, n)
	gen := trace.Google{Seed: 9}
	traces := map[int]trace.Series{}
	var workloads []Workload
	for i, id := range ids {
		tr := gen.Series(i, 1+i%steps) // some end early and hold their last sample
		traces[id] = tr
		workloads = append(workloads, Workload{VM: newVM(id, "[1,1]"), Trace: tr})
	}
	var pms []*placement.PM
	for _, id := range stressIDs(t, 20) {
		pms = append(pms, placement.NewPM(id, pmSmall, smallShape()))
	}
	c := placement.NewCluster(pms)
	s, err := New(shortCfg(steps), c, placement.FirstFit{}, placement.MMTEvictor{}, models(), workloads)
	if err != nil {
		t.Fatal(err)
	}
	hosted := append([]*placement.VM(nil), newVM(12345, "[1,1]")) // no workload
	for _, w := range workloads {
		hosted = append(hosted, w.VM)
	}
	for i, vm := range hosted {
		d := i / len(pms)
		if err := c.Host(pms[i%len(pms)], vm, resource.Assignment{{Dim: d % 4, Units: 1}, {Dim: (d + 1) % 4, Units: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < steps; step++ {
		for _, pm := range pms {
			want := oracleCPU(pm, step, DefaultCPUGroup, traces)
			got := s.actualCPU(pm, step)
			for d := range want {
				if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
					t.Fatalf("step %d pm %d dim %d: load %v, oracle %v", step, pm.ID, d, got, want)
				}
			}
		}
		vm := hosted[step%len(hosted)]
		from, _ := c.Locate(vm.ID)
		if _, err := c.Release(vm.ID); err != nil {
			t.Fatal(err)
		}
		moved := false
		for _, pm := range pms {
			if pm != from && c.Host(pm, vm, resource.Assignment{{Dim: step % 4, Units: 1}, {Dim: (step + 2) % 4, Units: 1}}) == nil {
				moved = true
				break
			}
		}
		if !moved {
			t.Fatalf("step %d: vm %d found no other PM", step, vm.ID)
		}
	}
	for i, id := range ids {
		if sl := s.col.slot(id); sl.id != id || int(sl.pos) != i+1 {
			t.Fatalf("id %d: slot %+v, want column %d", id, *sl, i)
		}
	}
	if sl := s.col.slot(12345); sl.pos != 0 {
		t.Fatalf("id without a workload found in slot %+v", *sl)
	}
}

// TestNewRejectsDuplicateIDInChain: New's duplicate checks are index
// inserts, so a repeated VM or PM id must be caught wherever it sits in
// a probe chain — at the chain's head, behind colliding ids, after a
// wrap — and at the ends of the int range.
func TestNewRejectsDuplicateIDInChain(t *testing.T) {
	// 23 distinct ids plus one repeat: 23 and 24 keys share a table
	// size, so the chains stressIDs built still collide.
	ids := stressIDs(t, 23)
	for _, pos := range []int{0, 2, 3, 4, 5, 9, 10, 14, 16, len(ids) - 1} {
		dup := ids[pos]
		var workloads []Workload
		var pms []*placement.PM
		for _, id := range append(append([]int(nil), ids...), dup) {
			workloads = append(workloads, Workload{VM: newVM(id, "[1,1]")})
			pms = append(pms, placement.NewPM(id, pmSmall, smallShape()))
		}
		_, err := New(shortCfg(4), newCluster(1), placement.FirstFit{}, placement.MMTEvictor{}, models(), workloads)
		if err == nil || !strings.Contains(err.Error(), "duplicate VM id "+strconv.Itoa(dup)) {
			t.Fatalf("repeat of VM id %d (position %d): err %v", dup, pos, err)
		}
		_, err = New(shortCfg(4), placement.NewCluster(pms), placement.FirstFit{}, placement.MMTEvictor{}, models(), nil)
		if err == nil || !strings.Contains(err.Error(), "duplicate PM id "+strconv.Itoa(dup)) {
			t.Fatalf("repeat of PM id %d (position %d): err %v", dup, pos, err)
		}
	}
}
