package experiments

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pagerankvm/internal/ranktable"
	"pagerankvm/internal/resource"
)

func TestAmazonCatalogShapes(t *testing.T) {
	cat, err := AmazonCatalog()
	if err != nil {
		t.Fatal(err)
	}
	m3, ok := cat.Shape("M3")
	if !ok {
		t.Fatal("no M3 shape")
	}
	// 8 cores of 4 vCPU slots, 17 memory units (64/3.75), 4 disks of
	// 31 units (250/8).
	if m3.NumDims() != 13 {
		t.Fatalf("M3 dims = %d", m3.NumDims())
	}
	if g := m3.Group(0); g.Dims != 8 || g.Cap != 4 {
		t.Fatalf("M3 cpu group %+v", g)
	}
	if g := m3.Group(1); g.Dims != 1 || g.Cap != 17 {
		t.Fatalf("M3 mem group %+v", g)
	}
	if g := m3.Group(2); g.Dims != 4 || g.Cap != 31 {
		t.Fatalf("M3 disk group %+v", g)
	}
	if _, ok := cat.Shape("Z9"); ok {
		t.Fatal("unknown shape found")
	}
}

func TestQuantizedDemands(t *testing.T) {
	cat, err := AmazonCatalog()
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		pm, vm   string
		cpuUnits []int
		mem      int
		disk     []int
	}{
		// m3 vCPUs are 0.6 GHz; M3 slots are 0.65 GHz -> 1 unit each.
		{pm: "M3", vm: "m3.large", cpuUnits: []int{1, 1}, mem: 2, disk: []int{4}},
		// c3 vCPUs are 0.7 GHz -> 2 M3 slots each.
		{pm: "M3", vm: "c3.large", cpuUnits: []int{2, 2}, mem: 1, disk: []int{2, 2}},
		// On a C3 host the slot is 0.7 GHz: c3 vCPUs take 1 unit.
		{pm: "C3", vm: "c3.xlarge", cpuUnits: []int{1, 1, 1, 1}, mem: 2, disk: []int{5, 5}},
		{pm: "M3", vm: "m3.2xlarge", cpuUnits: []int{1, 1, 1, 1, 1, 1, 1, 1}, mem: 8, disk: []int{10, 10}},
	}
	for _, tt := range tests {
		d, ok := cat.Demand(tt.pm, tt.vm)
		if !ok {
			t.Fatalf("no demand for %s on %s", tt.vm, tt.pm)
		}
		cpu, _ := d.DemandFor(GroupCPU)
		if !resource.Vec(cpu.Units).Equal(resource.Vec(tt.cpuUnits)) {
			t.Errorf("%s on %s cpu = %v, want %v", tt.vm, tt.pm, cpu.Units, tt.cpuUnits)
		}
		mem, _ := d.DemandFor(GroupMem)
		if mem.Units[0] != tt.mem {
			t.Errorf("%s on %s mem = %v, want %d", tt.vm, tt.pm, mem.Units, tt.mem)
		}
		disk, _ := d.DemandFor(GroupDisk)
		if !resource.Vec(disk.Units).Equal(resource.Vec(tt.disk)) {
			t.Errorf("%s on %s disk = %v, want %v", tt.vm, tt.pm, disk.Units, tt.disk)
		}
	}
	if _, ok := cat.Demand("Z9", "m3.large"); ok {
		t.Error("demand on unknown PM type")
	}
	if _, ok := cat.Demand("M3", "z9.tiny"); ok {
		t.Error("demand for unknown VM type")
	}
}

func TestNewVM(t *testing.T) {
	cat, err := AmazonCatalog()
	if err != nil {
		t.Fatal(err)
	}
	vm, err := cat.NewVM(7, "m3.medium")
	if err != nil {
		t.Fatal(err)
	}
	if vm.ID != 7 || vm.Type != "m3.medium" || len(vm.Req) != 2 {
		t.Fatalf("vm = %+v", vm)
	}
	if _, err := cat.NewVM(8, "nope"); err == nil {
		t.Fatal("unknown type accepted")
	}
	// One read-only Req map per VM type, handed to every VM of it: a new
	// VM costs its own struct and nothing else.
	other, err := cat.NewVM(9, "m3.medium")
	if err != nil {
		t.Fatal(err)
	}
	if reflect.ValueOf(vm.Req).Pointer() != reflect.ValueOf(other.Req).Pointer() {
		t.Fatal("two VMs of one type do not share the Req map")
	}
	if want, _ := cat.Demand("C3", "m3.medium"); !vm.Req["C3"].Equal(want) {
		t.Fatalf("Req[C3] = %v, want %v", vm.Req["C3"], want)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := cat.NewVM(1, "c3.large"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("NewVM allocates %.1f times, want <= 1", allocs)
	}
}

func TestBuildCluster(t *testing.T) {
	cat, err := AmazonCatalog()
	if err != nil {
		t.Fatal(err)
	}
	c := cat.BuildCluster(3)
	pms := c.PMs()
	if len(pms) != 6 {
		t.Fatalf("built %d PMs", len(pms))
	}
	// Interleaved types, unique ids.
	if pms[0].Type != "M3" || pms[1].Type != "C3" || pms[2].Type != "M3" {
		t.Fatalf("types %s,%s,%s", pms[0].Type, pms[1].Type, pms[2].Type)
	}
	seen := map[int]bool{}
	for _, pm := range pms {
		if seen[pm.ID] {
			t.Fatalf("duplicate pm id %d", pm.ID)
		}
		seen[pm.ID] = true
	}
}

func TestBuildRegistry(t *testing.T) {
	cat, err := AmazonCatalog()
	if err != nil {
		t.Fatal(err)
	}
	reg, err := cat.BuildRegistry(ranktable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 2 {
		t.Fatalf("registry has %d rankers", reg.Len())
	}
	for _, pmType := range []string{"M3", "C3"} {
		ranker, ok := reg.Get(pmType)
		if !ok {
			t.Fatalf("no ranker for %s", pmType)
		}
		shape, _ := cat.Shape(pmType)
		full, ok := ranker.Score(shape.Capacity())
		if !ok || full <= 0 {
			t.Fatalf("%s full profile score = %v, %v", pmType, full, ok)
		}
		empty, _ := ranker.Score(shape.Zero())
		if empty >= full {
			t.Fatalf("%s: empty %v should score below full %v", pmType, empty, full)
		}
	}
}

func TestVMMixNormalizes(t *testing.T) {
	mix := VMMix()
	total := 0.0
	for _, w := range mix {
		total += w
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("mix weights sum to %v", total)
	}
	names := make([]string, 0, len(mix))
	for _, vm := range AmazonVMTypes() {
		names = append(names, vm.Name)
	}
	// Sampling respects weights roughly.
	rng := rand.New(rand.NewSource(1))
	counts := map[string]int{}
	const draws = 20000
	for i := 0; i < draws; i++ {
		counts[SampleVMType(mix, names, rng.Float64())]++
	}
	for name, w := range mix {
		got := float64(counts[name]) / draws
		if got < w-0.02 || got > w+0.02 {
			t.Errorf("type %s frequency %v, want ~%v", name, got, w)
		}
	}
}

func TestTableWriters(t *testing.T) {
	var sb strings.Builder
	if err := WriteTable1(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "m3.2xlarge") {
		t.Errorf("table 1 missing rows: %s", sb.String())
	}
	sb.Reset()
	if err := WriteTable2(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "E5-2680") {
		t.Errorf("table 2 missing power model: %s", sb.String())
	}
	sb.Reset()
	if err := WriteTable3(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "417.6") {
		t.Errorf("table 3 missing breakpoint: %s", sb.String())
	}
}

func TestFigure1And2Writers(t *testing.T) {
	var sb strings.Builder
	if err := WriteFigure1(&sb, ranktable.Options{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "[4,4,4,4]") {
		t.Errorf("figure 1 output: %s", sb.String())
	}
	comps, err := RunFigure2(ranktable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 2 {
		t.Fatalf("comparisons = %d", len(comps))
	}
	for _, c := range comps {
		if !c.Holds {
			t.Errorf("paper comparison %v > %v does not hold: %v vs %v",
				c.Better, c.Worse, c.BetterScore, c.WorseScore)
		}
	}
	sb.Reset()
	if err := WriteFigure2(&sb, ranktable.Options{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "true") {
		t.Errorf("figure 2 output: %s", sb.String())
	}
}
