package placement

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"pagerankvm/internal/ranktable"
	"pagerankvm/internal/resource"
)

// test fixtures: a single "small" PM type with 4 cores of capacity 4,
// the paper's testbed configuration.

const pmSmall = "small"

func smallShape() *resource.Shape {
	return resource.MustShape(resource.Group{Name: "cpu", Dims: 4, Cap: 4})
}

func smallVMTypes() []resource.VMType {
	return []resource.VMType{
		resource.NewVMType("[1,1]", resource.Demand{Group: "cpu", Units: []int{1, 1}}),
		resource.NewVMType("[1,1,1,1]", resource.Demand{Group: "cpu", Units: []int{1, 1, 1, 1}}),
	}
}

func newVM(id int, typeName string) *VM {
	var vt resource.VMType
	for _, t := range smallVMTypes() {
		if t.Name == typeName {
			vt = t
		}
	}
	return &VM{ID: id, Type: typeName, Req: map[string]resource.VMType{pmSmall: vt}}
}

func newCluster(n int) *Cluster {
	shape := smallShape()
	pms := make([]*PM, n)
	for i := range pms {
		pms[i] = NewPM(i, pmSmall, shape)
	}
	return NewCluster(pms)
}

func smallRegistry(t *testing.T) *ranktable.Registry {
	t.Helper()
	table, err := ranktable.NewJoint(smallShape(), smallVMTypes(), ranktable.Options{})
	if err != nil {
		t.Fatalf("NewJoint: %v", err)
	}
	reg := ranktable.NewRegistry()
	reg.Add(pmSmall, table)
	return reg
}

// place is a test helper that runs a placer and commits the result.
func place(t *testing.T, c *Cluster, p Placer, vm *VM) *PM {
	t.Helper()
	pm, assign, err := p.Place(c, vm, nil)
	if err != nil {
		t.Fatalf("%s.Place(vm %d): %v", p.Name(), vm.ID, err)
	}
	if err := c.Host(pm, vm, assign); err != nil {
		t.Fatalf("Host: %v", err)
	}
	return pm
}

func TestClusterHostRelease(t *testing.T) {
	c := newCluster(2)
	if c.NumUsed() != 0 || len(c.UnusedPMs()) != 2 {
		t.Fatal("fresh cluster lists wrong")
	}
	vm := newVM(1, "[1,1]")
	pm := c.PMs()[0]
	demand, _ := vm.DemandOn(pmSmall)
	assign := resource.GreedyAssign(pm.Shape, pm.Used(), demand)
	if err := c.Host(pm, vm, assign); err != nil {
		t.Fatalf("Host: %v", err)
	}
	if c.NumUsed() != 1 || c.MaxUsed != 1 || c.NumVMs() != 1 {
		t.Fatalf("after host: used=%d max=%d vms=%d", c.NumUsed(), c.MaxUsed, c.NumVMs())
	}
	got, ok := c.Locate(1)
	if !ok || got != pm {
		t.Fatal("Locate failed")
	}
	// Double placement rejected.
	if err := c.Host(pm, vm, assign); err == nil {
		t.Fatal("double Host accepted")
	}
	h, err := c.Release(1)
	if err != nil {
		t.Fatalf("Release: %v", err)
	}
	if h.VM != vm {
		t.Fatal("released wrong VM")
	}
	if c.NumUsed() != 0 || len(c.UnusedPMs()) != 2 {
		t.Fatal("emptied PM did not return to unused list")
	}
	if c.MaxUsed != 1 {
		t.Fatal("MaxUsed must be a high-water mark")
	}
	if _, err := c.Release(1); err == nil {
		t.Fatal("Release of unplaced VM accepted")
	}
}

func TestPMHostOverflowRejected(t *testing.T) {
	pm := NewPM(0, pmSmall, smallShape())
	vm := newVM(1, "[1,1]")
	bogus := resource.Assignment{{Dim: 0, Units: 5}}
	if err := pm.host(vm, bogus); err == nil {
		t.Fatal("over-capacity assignment accepted")
	}
	if pm.Used().Sum() != 0 {
		t.Fatal("failed host mutated PM")
	}
}

func TestPMRemoveUnknown(t *testing.T) {
	pm := NewPM(0, pmSmall, smallShape())
	if _, err := pm.remove(42); err == nil {
		t.Fatal("remove of unknown VM accepted")
	}
}

// checkHosted holds a PM's hosted set to its invariant: VM ids
// ascending and unique; HostedVMs, Get, VMIDs and VMs agreeing; and,
// given a cluster, every hosted VM located on this PM.
func checkHosted(t *testing.T, c *Cluster, pm *PM) {
	t.Helper()
	hosted, ids, vms := pm.HostedVMs(), pm.VMIDs(), pm.VMs()
	if len(ids) != len(hosted) || len(vms) != len(hosted) || pm.NumVMs() != len(hosted) || pm.Active() != (len(hosted) > 0) {
		t.Fatalf("pm %d: %d hosted, %d ids, %d in the map, NumVMs %d, Active %v",
			pm.ID, len(hosted), len(ids), len(vms), pm.NumVMs(), pm.Active())
	}
	for i, h := range hosted {
		id := h.VM.ID
		if i > 0 && id <= hosted[i-1].VM.ID {
			t.Fatalf("pm %d: hosted ids %v not ascending and unique", pm.ID, ids)
		}
		if ids[i] != id {
			t.Fatalf("pm %d: VMIDs %v disagree with the hosted set at %d (vm %d)", pm.ID, ids, i, id)
		}
		got, ok := pm.Get(id)
		if !ok || got.VM != h.VM || !slices.Equal(got.Assign, h.Assign) {
			t.Fatalf("pm %d: Get(%d) = %v, %v; hosted holds %v", pm.ID, id, got, ok, h)
		}
		if m := vms[id]; m.VM != h.VM || !slices.Equal(m.Assign, h.Assign) {
			t.Fatalf("pm %d: VMs()[%d] = %v; hosted holds %v", pm.ID, id, m, h)
		}
		if c != nil {
			if loc, ok := c.Locate(id); !ok || loc != pm {
				t.Fatalf("pm %d hosts vm %d, the cluster locates it on pm %d", pm.ID, id, idOf(loc))
			}
		}
	}
}

// The hosted set stays id-ordered whatever order VMs arrive and leave
// in, and host/remove keep rejecting a duplicate or an absent id
// without touching the set.
func TestPMHostedOrder(t *testing.T) {
	pm := NewPM(0, pmSmall, smallShape())
	rng := rand.New(rand.NewSource(3))
	ids := rng.Perm(40)[:8] // sparse, shuffled
	one := resource.Assignment{{Dim: 0, Units: 1}}
	for i, id := range ids {
		one[0].Dim = i % 4
		if err := pm.host(newVM(id, "[1,1]"), slices.Clone(one)); err != nil {
			t.Fatal(err)
		}
		checkHosted(t, nil, pm)
	}
	before := pm.VMIDs()
	if err := pm.host(newVM(ids[3], "[1,1]"), resource.Assignment{{Dim: 0, Units: 1}}); err == nil {
		t.Fatalf("duplicate host of vm %d accepted", ids[3])
	}
	absent := 40
	for _, id := range []int{-1, absent} {
		if _, err := pm.remove(id); err == nil {
			t.Fatalf("remove of absent vm %d accepted", id)
		}
	}
	if got := pm.VMIDs(); !slices.Equal(got, before) {
		t.Fatalf("rejected host/remove changed the hosted set: %v, was %v", got, before)
	}
	for _, id := range ids[2:6] {
		if _, err := pm.remove(id); err != nil {
			t.Fatal(err)
		}
		checkHosted(t, nil, pm)
		if _, ok := pm.Get(id); ok {
			t.Fatalf("Get(%d) finds a removed VM", id)
		}
		if _, err := pm.remove(id); err == nil {
			t.Fatalf("second remove of vm %d accepted", id)
		}
	}
	if pm.NumVMs() != len(ids)-4 {
		t.Fatalf("NumVMs = %d, want %d", pm.NumVMs(), len(ids)-4)
	}
}

func TestFirstFitFillsInOrder(t *testing.T) {
	c := newCluster(3)
	ff := FirstFit{}
	// 8 x [1,1] = 16 units fill exactly one PM (4 dims x cap 4).
	for i := 0; i < 8; i++ {
		pm := place(t, c, ff, newVM(i, "[1,1]"))
		if pm != c.PMs()[0] {
			t.Fatalf("vm %d placed on pm %d, want 0", i, pm.ID)
		}
	}
	// The 9th VM opens the second PM.
	pm := place(t, c, ff, newVM(8, "[1,1]"))
	if pm != c.PMs()[1] {
		t.Fatalf("overflow vm placed on pm %d, want 1", pm.ID)
	}
	if c.MaxUsed != 2 {
		t.Fatalf("MaxUsed = %d, want 2", c.MaxUsed)
	}
}

func TestFirstFitNoCapacity(t *testing.T) {
	c := newCluster(1)
	ff := FirstFit{}
	for i := 0; i < 4; i++ {
		place(t, c, ff, newVM(i, "[1,1,1,1]"))
	}
	_, _, err := ff.Place(c, newVM(99, "[1,1]"), nil)
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v, want ErrNoCapacity", err)
	}
}

func TestFirstFitExcludesSource(t *testing.T) {
	c := newCluster(2)
	ff := FirstFit{}
	place(t, c, ff, newVM(0, "[1,1]"))
	src := c.PMs()[0]
	pm, _, err := ff.Place(c, newVM(1, "[1,1]"), src)
	if err != nil {
		t.Fatal(err)
	}
	if pm == src {
		t.Fatal("excluded PM chosen")
	}
}

func TestFFDSumOrderVMs(t *testing.T) {
	vms := []*VM{newVM(0, "[1,1]"), newVM(1, "[1,1,1,1]"), newVM(2, "[1,1]")}
	FFDSum{}.OrderVMs(vms)
	if vms[0].ID != 1 {
		t.Fatalf("largest VM not first: %d", vms[0].ID)
	}
	// Equal sizes keep ascending-ID order.
	if vms[1].ID != 0 || vms[2].ID != 2 {
		t.Fatalf("tie order wrong: %d,%d", vms[1].ID, vms[2].ID)
	}
}

func TestFFDSumPlaces(t *testing.T) {
	c := newCluster(2)
	p := FFDSum{}
	for i := 0; i < 8; i++ {
		place(t, c, p, newVM(i, "[1,1]"))
	}
	if c.NumUsed() != 1 {
		t.Fatalf("used %d PMs, want 1", c.NumUsed())
	}
}

func TestCompVMMinimizesVariance(t *testing.T) {
	c := newCluster(2)
	comp := CompVM{}
	// Preload PM0 unbalanced: one [1,1,1,1] + one extra [1,1] makes
	// [2,2,1,1]; PM1 balanced [1,1,1,1].
	pm0, pm1 := c.PMs()[0], c.PMs()[1]
	mustHost(t, c, pm0, newVM(0, "[1,1,1,1]"))
	mustHost(t, c, pm0, newVM(1, "[1,1]"))
	mustHost(t, c, pm1, newVM(2, "[1,1,1,1]"))

	// A [1,1] on PM0 can go on the two 1-dims -> [2,2,2,2], variance 0.
	// On PM1 the best is [2,2,1,1], variance > 0. CompVM must pick PM0.
	pm, assign, err := comp.Place(c, newVM(3, "[1,1]"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if pm != pm0 {
		t.Fatalf("CompVM picked pm %d, want 0", pm.ID)
	}
	result := pm.Used().Add(assign.Vec(pm.Shape))
	if v, _ := utilVariance(pm.Shape, result); v != 0 {
		t.Fatalf("variance after placement = %v, want 0 (profile %v)", v, result)
	}
}

func TestBestFitPicksFullest(t *testing.T) {
	c := newCluster(3)
	bf := BestFit{}
	pm0, pm1 := c.PMs()[0], c.PMs()[1]
	mustHost(t, c, pm0, newVM(0, "[1,1]"))
	mustHost(t, c, pm1, newVM(1, "[1,1,1,1]"))
	// PM1 is fuller (4 units vs 2): BestFit chooses it.
	pm, _, err := bf.Place(c, newVM(2, "[1,1]"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if pm != pm1 {
		t.Fatalf("BestFit picked pm %d, want 1", pm.ID)
	}
}

// mustHost places a VM on a specific PM with a greedy assignment.
func mustHost(t *testing.T, c *Cluster, pm *PM, vm *VM) {
	t.Helper()
	demand, ok := vm.DemandOn(pm.Type)
	if !ok {
		t.Fatalf("vm %d has no demand for pm type %s", vm.ID, pm.Type)
	}
	assign := resource.GreedyAssign(pm.Shape, pm.Used(), demand)
	if assign == nil {
		t.Fatalf("vm %d does not fit pm %d", vm.ID, pm.ID)
	}
	if err := c.Host(pm, vm, assign); err != nil {
		t.Fatal(err)
	}
}

func TestPlacersNeverOvercommit(t *testing.T) {
	placers := []Placer{FirstFit{}, FFDSum{}, CompVM{}, BestFit{}}
	for _, p := range placers {
		t.Run(p.Name(), func(t *testing.T) {
			c := newCluster(4)
			rng := rand.New(rand.NewSource(9))
			caps := smallShape().Capacity()
			for i := 0; i < 60; i++ {
				typ := "[1,1]"
				if rng.Intn(2) == 0 {
					typ = "[1,1,1,1]"
				}
				vm := newVM(i, typ)
				pm, assign, err := p.Place(c, vm, nil)
				if errors.Is(err, ErrNoCapacity) {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Host(pm, vm, assign); err != nil {
					t.Fatal(err)
				}
				for _, m := range c.PMs() {
					if !m.Used().LE(caps) {
						t.Fatalf("pm %d overcommitted: %v", m.ID, m.Used())
					}
				}
			}
		})
	}
}
