package lattice

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"pagerankvm/internal/resource"
)

// randomSetup draws a small random shape and VM-type set (seeded; the
// detrand analyzer forbids the global source). Beyond independent
// draws it produces what the demand-class pass and the pruning in
// placeUnit act on: a second demand on a group the type already
// demands, an earlier type's demands repeated under a new name, and an
// earlier type repeated whole; the low capacities give every lattice
// profiles with many equal values.
func randomSetup(rng *rand.Rand) (*resource.Shape, []resource.VMType) {
	groups := []resource.Group{
		{Name: "cpu", Dims: 1 + rng.Intn(4), Cap: 2 + rng.Intn(3)},
	}
	if rng.Intn(2) == 0 {
		groups = append(groups, resource.Group{Name: "mem", Dims: 1 + rng.Intn(2), Cap: 2 + rng.Intn(3)})
	}
	shape := resource.MustShape(groups...)
	draw := func(g resource.Group) resource.Demand {
		units := make([]int, 1+rng.Intn(g.Dims))
		for u := range units {
			units[u] = 1 + rng.Intn(g.Cap)
		}
		return resource.Demand{Group: g.Name, Units: units}
	}
	var types []resource.VMType
	for k := 0; k < 1+rng.Intn(3); k++ {
		var demands []resource.Demand
		for _, g := range groups {
			if rng.Intn(3) == 0 && len(demands) > 0 {
				continue
			}
			demands = append(demands, draw(g))
			if rng.Intn(4) == 0 {
				demands = append(demands, draw(g))
			}
		}
		types = append(types, resource.NewVMType(string(rune('a'+k)), demands...))
	}
	switch src := types[rng.Intn(len(types))]; rng.Intn(3) {
	case 0:
		types = append(types, resource.VMType{Name: "again", Demands: src.Demands})
	case 1:
		types = append(types, src)
	}
	return shape, types
}

// typedArenas is every typed list of a space, decoded and laid out
// (node, type)-major: the segment of node i and type t is
// [off[i*T+t], off[i*T+t+1]), each edge its successor id and its full
// representative assignment. Equal arenas mean equal typed lists.
type typedArenas struct {
	off    []int32
	succ   []int32
	assign []resource.Assignment
}

// segment returns the successors and assignments of node i, type ty.
func (a *typedArenas) segment(T, i, ty int) ([]int32, []resource.Assignment) {
	lo, hi := a.off[i*T+ty], a.off[i*T+ty+1]
	return a.succ[lo:hi], a.assign[lo:hi]
}

// decodeTyped collects the typed lists through VisitTyped — which must
// hand over every (node, demand class) segment exactly once, with
// stride dimension indices per edge — and expands them per type.
func decodeTyped(t *testing.T, s *Space) typedArenas {
	t.Helper()
	if !s.HasTyped() {
		t.Fatal("typed lists not built for a small lattice")
	}
	K := len(s.stride)
	type seg struct {
		succ   []int32
		dims   []uint8
		visits int
	}
	segs := make([]seg, s.Len()*K)
	s.VisitTyped(func(i, k int, succ []int32, dims []uint8) {
		sg := &segs[i*K+k]
		sg.succ = append(sg.succ, succ...)
		sg.dims = append(sg.dims, dims...)
		sg.visits++
	})
	a := typedArenas{off: make([]int32, 1, s.Len()*s.NumTypes()+1)}
	for i := 0; i < s.Len(); i++ {
		for ty := 0; ty < s.NumTypes(); ty++ {
			k := s.TypeClass(ty)
			sg := &segs[i*K+k]
			if sg.visits != 1 {
				t.Fatalf("node %d class %d visited %d times, want once", i, k, sg.visits)
			}
			if len(sg.dims) != len(sg.succ)*s.stride[k] {
				t.Fatalf("node %d class %d: %d dimension indices for %d edges of stride %d", i, k, len(sg.dims), len(sg.succ), s.stride[k])
			}
			a.succ = append(a.succ, sg.succ...)
			a.assign = append(a.assign, typedAssign(s.TypeAt(ty), sg.dims)...)
			a.off = append(a.off, int32(len(a.succ)))
		}
	}
	return a
}

// typedAssign decodes a segment's dimension indices the way ranktable
// does: the units are the type's own, demands in order.
func typedAssign(vt resource.VMType, dims []uint8) []resource.Assignment {
	var out []resource.Assignment
	for len(dims) > 0 {
		var a resource.Assignment
		for _, d := range vt.Demands {
			for _, u := range d.Units {
				a = append(a, resource.DimUnits{Dim: int(dims[0]), Units: u})
				dims = dims[1:]
			}
		}
		out = append(out, a)
	}
	return out
}

// TestWireParallelDeterministic is the tentpole's determinism
// contract: for any worker count, every arena of the space — union
// CSR, typed successor lists, typed assignments — must be byte-for-
// byte the output of the serial build.
func TestWireParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		shape, types := randomSetup(rng)
		ref, err := NewSpace(shape, types, Options{Workers: 1})
		if err != nil {
			t.Fatalf("trial %d: serial build: %v", trial, err)
		}
		refTyped := decodeTyped(t, ref)
		for _, workers := range []int{2, 3, 7, 0} {
			got, err := NewSpace(shape, types, Options{Workers: workers})
			if err != nil {
				t.Fatalf("trial %d: workers=%d: %v", trial, workers, err)
			}
			if !reflect.DeepEqual(got.succOff, ref.succOff) || !reflect.DeepEqual(got.succ, ref.succ) {
				t.Fatalf("trial %d: workers=%d: union CSR differs from serial build", trial, workers)
			}
			if !reflect.DeepEqual(decodeTyped(t, got), refTyped) {
				t.Fatalf("trial %d: workers=%d: typed arenas differ from serial build", trial, workers)
			}
		}
	}
}

// TestWireParallelRace exercises concurrent wiring under the race
// detector (make race runs this package with -race).
func TestWireParallelRace(t *testing.T) {
	shape := resource.MustShape(resource.Group{Name: "cpu", Dims: 4, Cap: 4})
	types := []resource.VMType{
		resource.NewVMType("[1,1]", resource.Demand{Group: "cpu", Units: []int{1, 1}}),
		resource.NewVMType("[2]", resource.Demand{Group: "cpu", Units: []int{2}}),
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := NewSpace(shape, types, Options{Workers: 8}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestTypedSuccessors checks the labeled lists against a direct
// enumeration: for every (node, type), the typed successors must be
// exactly resource.Placements in order, and each stored assignment
// must transform the node's profile into the successor's profile.
func TestTypedSuccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 15; trial++ {
		shape, types := randomSetup(rng)
		s, err := NewSpace(shape, types, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !s.HasTyped() {
			t.Fatalf("trial %d: typed arenas not built for a small lattice", trial)
		}
		typed := decodeTyped(t, s)
		for i := 0; i < s.Len(); i++ {
			node := s.Node(i)
			union := make(map[int32]bool)
			for ty := 0; ty < s.NumTypes(); ty++ {
				pls := resource.Placements(shape, node, s.TypeAt(ty))
				succ, assigns := typed.segment(s.NumTypes(), i, ty)
				if len(succ) != len(pls) || len(assigns) != len(pls) {
					t.Fatalf("trial %d node %v type %s: %d typed successors with %d assignments, want %d",
						trial, node, s.TypeAt(ty).Name, len(succ), len(assigns), len(pls))
				}
				for k, pl := range pls {
					if want := s.Index(pl.Result); int(succ[k]) != want {
						t.Fatalf("trial %d node %v type %s: successor %d = node %d, want %d",
							trial, node, s.TypeAt(ty).Name, k, succ[k], want)
					}
					got := node.Add(assigns[k].Vec(shape))
					if !shape.Canon(got).Equal(s.Node(int(succ[k]))) {
						t.Fatalf("trial %d node %v type %s: assignment %v does not yield successor %v",
							trial, node, s.TypeAt(ty).Name, assigns[k], s.Node(int(succ[k])))
					}
					union[succ[k]] = true
				}
			}
			if got := len(s.Succ(i)); got != len(union) {
				t.Fatalf("trial %d node %v: union CSR has %d successors, typed union has %d",
					trial, node, got, len(union))
			}
		}
	}
}

// TestEdgesPointUp checks the property internal/pagerank's single
// sweeps rely on: every union edge and every typed successor points to
// a higher node id. randomSetup covers single-group and joint
// multi-group shapes, low capacities, repeated demands and two demands
// on one group.
func TestEdgesPointUp(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var single, multi int
	for trial := 0; trial < 60; trial++ {
		shape, types := randomSetup(rng)
		if shape.NumGroups() == 1 {
			single++
		} else {
			multi++
		}
		s, err := NewSpace(shape, types, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := 0; i < s.Len(); i++ {
			for _, j := range s.Succ(i) {
				if int(j) <= i {
					t.Fatalf("trial %d: union edge %d -> %d does not point up", trial, i, j)
				}
			}
		}
		typed := decodeTyped(t, s)
		for i := 0; i < s.Len(); i++ {
			for ty := 0; ty < s.NumTypes(); ty++ {
				succ, _ := typed.segment(s.NumTypes(), i, ty)
				for _, j := range succ {
					if int(j) <= i {
						t.Fatalf("trial %d: type %s edge %d -> %d does not point up", trial, s.TypeAt(ty).Name, i, j)
					}
				}
			}
		}
	}
	if single == 0 || multi == 0 {
		t.Fatalf("%d single-group and %d multi-group shapes drawn, want both", single, multi)
	}
}

// TestStampWrap: a worker's dedup stamps are never reused while an
// entry may hold them. A scratch whose tick is about to wrap, with
// stale entries equal to the stamps a wrapped tick would hand out
// next, must wire exactly what a fresh build does.
func TestStampWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 10; trial++ {
		shape, types := randomSetup(rng)
		s, err := NewSpace(shape, types, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := decodeTyped(t, s)

		classes := make([]resource.VMType, len(s.stride))
		for ty := s.NumTypes() - 1; ty >= 0; ty-- {
			classes[s.TypeClass(ty)] = s.TypeAt(ty)
		}
		plans := buildTypePlans(shape, classes)
		sc := &wireScratch{}
		sc.reset(s, plans)
		sc.tick = math.MaxUint32 - 2
		for j := range sc.seenU {
			sc.seenU[j], sc.seenT[j] = uint32(j%7)+1, uint32(j%5)+1
		}
		ch := &wireChunk{}
		ch.reset(0, s.Len(), len(plans))
		s.wireRange(ch, sc, plans, true)
		if sc.tick > math.MaxUint32/2 {
			t.Fatalf("trial %d: tick %d did not restart", trial, sc.tick)
		}

		s.releaseChunks()
		s.chunks = []*wireChunk{ch}
		if !equalEdges(ch.union.succ, s.succ) || !reflect.DeepEqual(decodeTyped(t, s), want) {
			t.Fatalf("trial %d: wiring across the stamp wrap differs from a fresh build", trial)
		}
		for j, cnt := range ch.union.cnt {
			if cnt != s.succOff[j+1]-s.succOff[j] {
				t.Fatalf("trial %d: node %d has %d union edges across the wrap, want %d", trial, j, cnt, s.succOff[j+1]-s.succOff[j])
			}
		}
	}
}
