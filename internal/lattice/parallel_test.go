package lattice

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"pagerankvm/internal/resource"
)

// randomSetup draws a small random shape and VM-type set (seeded; the
// detrand analyzer forbids the global source).
func randomSetup(rng *rand.Rand) (*resource.Shape, []resource.VMType) {
	groups := []resource.Group{
		{Name: "cpu", Dims: 1 + rng.Intn(3), Cap: 2 + rng.Intn(3)},
	}
	if rng.Intn(2) == 0 {
		groups = append(groups, resource.Group{Name: "mem", Dims: 1 + rng.Intn(2), Cap: 2 + rng.Intn(3)})
	}
	shape := resource.MustShape(groups...)
	var types []resource.VMType
	for k := 0; k < 1+rng.Intn(3); k++ {
		var demands []resource.Demand
		for _, g := range groups {
			if rng.Intn(3) == 0 && len(demands) > 0 {
				continue
			}
			units := make([]int, 1+rng.Intn(g.Dims))
			for u := range units {
				units[u] = 1 + rng.Intn(g.Cap)
			}
			demands = append(demands, resource.Demand{Group: g.Name, Units: units})
		}
		types = append(types, resource.NewVMType(string(rune('a'+k)), demands...))
	}
	return shape, types
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
		for _, workers := range []int{2, 3, 7, 0} {
			got, err := NewSpace(shape, types, Options{Workers: workers})
			if err != nil {
				t.Fatalf("trial %d: workers=%d: %v", trial, workers, err)
			}
			if !reflect.DeepEqual(got.succOff, ref.succOff) || !reflect.DeepEqual(got.succ, ref.succ) {
				t.Fatalf("trial %d: workers=%d: union CSR differs from serial build", trial, workers)
			}
			if !reflect.DeepEqual(got.tOff, ref.tOff) || !reflect.DeepEqual(got.tSucc, ref.tSucc) ||
				!reflect.DeepEqual(got.tAssign, ref.tAssign) {
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
		for i := 0; i < s.Len(); i++ {
			node := s.Node(i)
			union := make(map[int32]bool)
			for ty := 0; ty < s.NumTypes(); ty++ {
				pls := resource.Placements(shape, node, s.TypeAt(ty))
				succ := s.TypedSucc(i, ty)
				assigns := s.TypedAssign(i, ty)
				if len(succ) != len(pls) {
					t.Fatalf("trial %d node %v type %s: %d typed successors, want %d",
						trial, node, s.TypeAt(ty).Name, len(succ), len(pls))
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
