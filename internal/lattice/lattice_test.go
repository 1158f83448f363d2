package lattice

import (
	"sync/atomic"
	"testing"

	"pagerankvm/internal/resource"
)

func paperSpace(t *testing.T) *Space {
	t.Helper()
	shape := resource.MustShape(resource.Group{Name: "cpu", Dims: 4, Cap: 4})
	types := []resource.VMType{
		resource.NewVMType("[1,1]", resource.Demand{Group: "cpu", Units: []int{1, 1}}),
		resource.NewVMType("[1,1,1,1]", resource.Demand{Group: "cpu", Units: []int{1, 1, 1, 1}}),
	}
	s, err := New(shape, types)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestSpaceEnumeration(t *testing.T) {
	s := paperSpace(t)
	// C(8,4) = 70 canonical profiles for 4 dims of capacity 4.
	if s.Len() != 70 {
		t.Fatalf("Len = %d, want 70", s.Len())
	}
	// Every node is canonical (non-decreasing) and within capacity.
	caps := s.Shape().Capacity()
	seen := make(map[string]bool)
	for i := 0; i < s.Len(); i++ {
		n := s.Node(i)
		if !n.LE(caps) {
			t.Fatalf("node %v exceeds capacity", n)
		}
		for d := 1; d < len(n); d++ {
			if n[d-1] > n[d] {
				t.Fatalf("node %v not canonical", n)
			}
		}
		key := s.Shape().Key(n)
		if seen[key] {
			t.Fatalf("duplicate node %v", n)
		}
		seen[key] = true
	}
}

func TestSpaceSuccessorsIncreaseUsage(t *testing.T) {
	s := paperSpace(t)
	for i := 0; i < s.Len(); i++ {
		from := s.Node(i)
		for _, j := range s.Succ(i) {
			to := s.Node(int(j))
			if to.Sum() <= from.Sum() {
				t.Fatalf("edge %v -> %v does not increase usage", from, to)
			}
		}
	}
}

func TestSpacePaperEdges(t *testing.T) {
	s := paperSpace(t)
	// [3,3,3,3] can go to [4,4,3,3] (one [1,1]) or [4,4,4,4]
	// (one [1,1,1,1]).
	i := s.Index(resource.Vec{3, 3, 3, 3})
	if i < 0 {
		t.Fatal("profile [3,3,3,3] not found")
	}
	succ := s.Succ(i)
	want := map[string]bool{
		s.Shape().Key(resource.Vec{4, 4, 3, 3}): false,
		s.Shape().Key(resource.Vec{4, 4, 4, 4}): false,
	}
	if len(succ) != len(want) {
		t.Fatalf("got %d successors, want %d", len(succ), len(want))
	}
	for _, j := range succ {
		key := s.Shape().Key(s.Node(int(j)))
		if _, ok := want[key]; !ok {
			t.Fatalf("unexpected successor %v", s.Node(int(j)))
		}
		want[key] = true
	}
	for k, hit := range want {
		if !hit {
			t.Errorf("missing successor with key %q", k)
		}
	}

	// [4,4,2,2] can only go via [1,1] on the two free dims:
	// -> [4,4,3,3] (split) or [4,4,4,2]? No: units land on distinct
	// dims, so {2,2}->{3,3} or one of the 2s twice is illegal; but
	// [1,1] on dims with value 2 and 2 gives [4,4,3,3] only... and
	// placing on a 2 and a 4 is infeasible (4+1>4). So exactly one
	// successor.
	i = s.Index(resource.Vec{4, 4, 2, 2})
	succ = s.Succ(i)
	if len(succ) != 1 || !s.Node(int(succ[0])).Equal(resource.Vec{2, 3, 4, 4}.Clone()) {
		// canonical form of [4,4,3,3] is [3,3,4,4]
		got := make([]resource.Vec, 0, len(succ))
		for _, j := range succ {
			got = append(got, s.Node(int(j)))
		}
		want := resource.Vec{3, 3, 4, 4}
		if len(succ) != 1 || !got[0].Equal(want) {
			t.Fatalf("successors of [4,4,2,2] = %v, want [%v]", got, want)
		}
	}
}

func TestSpaceTerminals(t *testing.T) {
	s := paperSpace(t)
	terms := s.Terminals()
	// The full profile is terminal.
	full := s.Index(resource.Vec{4, 4, 4, 4})
	found := false
	for _, id := range terms {
		if id == full {
			found = true
		}
		if len(s.Succ(id)) != 0 {
			t.Fatalf("terminal %v has successors", s.Node(id))
		}
	}
	if !found {
		t.Fatal("full profile not terminal")
	}
	// [4,4,4,3] is terminal too: neither VM type fits.
	i := s.Index(resource.Vec{4, 4, 4, 3})
	if len(s.Succ(i)) != 0 {
		t.Fatalf("[4,4,4,3] should be terminal")
	}
}

func TestSpaceIndex(t *testing.T) {
	s := paperSpace(t)
	// Non-canonical lookup works.
	if s.Index(resource.Vec{4, 2, 4, 2}) != s.Index(resource.Vec{2, 2, 4, 4}) {
		t.Fatal("Index not canonical")
	}
	if s.Index(resource.Vec{5, 0, 0, 0}) != -1 {
		t.Fatal("out-of-lattice profile indexed")
	}
	if s.Index(resource.Vec{1, 1}) != -1 {
		t.Fatal("wrong-length profile indexed")
	}
}

func TestSpaceUtils(t *testing.T) {
	s := paperSpace(t)
	utils := s.Utils()
	if got := utils[s.Index(resource.Vec{4, 4, 4, 4})]; got != 1 {
		t.Errorf("full util = %v", got)
	}
	if got := utils[s.Index(resource.Vec{0, 0, 0, 0})]; got != 0 {
		t.Errorf("zero util = %v", got)
	}
	if got := utils[s.Index(resource.Vec{2, 2, 2, 2})]; got != 0.5 {
		t.Errorf("half util = %v", got)
	}
}

func TestNewRejectsInvalidVMType(t *testing.T) {
	shape := resource.MustShape(resource.Group{Name: "cpu", Dims: 2, Cap: 2})
	bad := resource.NewVMType("bad", resource.Demand{Group: "gpu", Units: []int{1}})
	if _, err := New(shape, []resource.VMType{bad}); err == nil {
		t.Fatal("New accepted a VM type with an unknown group")
	}
}

func TestNewRejectsHugeSpace(t *testing.T) {
	shape := resource.MustShape(resource.Group{Name: "x", Dims: 64, Cap: 255})
	if _, err := New(shape, nil); err == nil {
		t.Fatal("New accepted a combinatorially huge space")
	}
}

func TestMultiGroupSpace(t *testing.T) {
	shape := resource.MustShape(
		resource.Group{Name: "cpu", Dims: 2, Cap: 2},
		resource.Group{Name: "mem", Dims: 1, Cap: 2},
	)
	types := []resource.VMType{
		resource.NewVMType("t",
			resource.Demand{Group: "cpu", Units: []int{1}},
			resource.Demand{Group: "mem", Units: []int{1}},
		),
	}
	s, err := New(shape, types)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// cpu canonical: C(4,2)=6 states; mem: 3 states => 18 nodes.
	if s.Len() != 18 {
		t.Fatalf("Len = %d, want 18", s.Len())
	}
	// zero -> [0,1|1] only (canonical), one successor.
	zero := s.Index(shape.Zero())
	if got := len(s.Succ(zero)); got != 1 {
		t.Fatalf("zero has %d successors, want 1", got)
	}
}

// diskTypes are the six Table I VM types projected onto the disk group
// (8 GB units): m3.xlarge and c3.xlarge ask for the same two 5-unit
// volumes.
func diskTypes() []resource.VMType {
	var types []resource.VMType
	for _, vt := range []struct {
		name  string
		units []int
	}{
		{"m3.medium", []int{1}}, {"m3.large", []int{4}}, {"m3.xlarge", []int{5, 5}},
		{"m3.2xlarge", []int{10, 10}}, {"c3.large", []int{2, 2}}, {"c3.xlarge", []int{5, 5}},
	} {
		types = append(types, resource.NewVMType(vt.name, resource.Demand{Group: "disk", Units: vt.units}))
	}
	return types
}

// TestDemandClasses: each distinct demand is enumerated once per node —
// five typed lists for the catalog's six disk types, each visited once
// per node — and the types of one class read the same list.
func TestDemandClasses(t *testing.T) {
	shape := resource.MustShape(resource.Group{Name: "disk", Dims: 4, Cap: 31})
	s, err := New(shape, diskTypes())
	if err != nil {
		t.Fatal(err)
	}
	if s.NumTypes() != 6 || len(s.stride) != 5 {
		t.Fatalf("%d types in %d demand classes, want 6 in 5", s.NumTypes(), len(s.stride))
	}
	xl, cxl := s.TypeIndex("m3.xlarge"), s.TypeIndex("c3.xlarge")
	if s.TypeClass(xl) != s.TypeClass(cxl) {
		t.Fatalf("m3.xlarge and c3.xlarge are in classes %d and %d, want one", s.TypeClass(xl), s.TypeClass(cxl))
	}
	var visits atomic.Int64
	s.VisitTyped(func(int, int, []int32, []uint8) { visits.Add(1) })
	if got, want := visits.Load(), int64(s.Len()*5); got != want {
		t.Fatalf("VisitTyped made %d calls, want one per node and class: %d", got, want)
	}
	s.ReleaseTyped()
	if s.HasTyped() {
		t.Fatal("typed lists held after ReleaseTyped")
	}
	s.VisitTyped(func(int, int, []int32, []uint8) { t.Fatal("VisitTyped called back after ReleaseTyped") })
}

// TestSameNameTypes: a name given twice must mean one demand. An exact
// repeat is kept (both entries resolve to the same lists); a different
// demand under the same name is an error, because rankers resolve VM
// types by name.
func TestSameNameTypes(t *testing.T) {
	shape := resource.MustShape(resource.Group{Name: "cpu", Dims: 3, Cap: 4})
	a1 := resource.NewVMType("a", resource.Demand{Group: "cpu", Units: []int{1}})
	a2 := resource.NewVMType("a", resource.Demand{Group: "cpu", Units: []int{2, 2}})
	if _, err := New(shape, []resource.VMType{a1, a2}); err == nil {
		t.Fatal("New accepted one name with two different demands")
	}
	s, err := New(shape, []resource.VMType{a1, {Name: "b", Demands: a2.Demands}, a1})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumTypes() != 3 || len(s.stride) != 2 || s.TypeIndex("a") != 0 {
		t.Fatalf("%d types, %d classes, TypeIndex(a) = %d; want 3, 2, 0", s.NumTypes(), len(s.stride), s.TypeIndex("a"))
	}
}

// TestWideShapeDeclinesTyped: dimension indices are recorded in a byte,
// so a shape with more than 256 dimensions gets the union graph only.
func TestWideShapeDeclinesTyped(t *testing.T) {
	types := []resource.VMType{resource.NewVMType("v", resource.Demand{Group: "cpu", Units: []int{1, 1}})}
	for dims, want := range map[int]bool{254: true, 255: false} {
		shape := resource.MustShape(
			resource.Group{Name: "cpu", Dims: 2, Cap: 2},
			resource.Group{Name: "pad", Dims: dims, Cap: 1},
		)
		s, err := New(shape, types)
		if err != nil {
			t.Fatal(err)
		}
		if s.HasTyped() != want || s.Edges() == 0 {
			t.Fatalf("%d dimensions: HasTyped = %v, want %v (%d edges)", shape.NumDims(), s.HasTyped(), want, s.Edges())
		}
	}
}
