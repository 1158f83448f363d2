package lattice

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"pagerankvm/internal/resource"
)

// legacySpace is the pre-arena reference build: recursive enumeration
// cloning one vector per node, a string-keyed index map, and
// resource.Placements materializing every placement. The arena build
// must reproduce its every arena bitwise; this is the equivalence
// contract of DESIGN.md §13.
type legacySpace struct {
	nodes   []resource.Vec
	index   map[string]int
	succOff []int32
	succ    []int32
	tOff    []int32
	tSucc   []int32
	assigns []resource.Assignment
}

func legacyBuild(t *testing.T, shape *resource.Shape, vmTypes []resource.VMType) *legacySpace {
	t.Helper()
	var active []resource.VMType
	for _, vt := range vmTypes {
		if err := vt.Validate(shape); err != nil {
			t.Fatalf("legacy build: %v", err)
		}
		touches := false
		for _, d := range vt.Demands {
			if shape.GroupIndex(d.Group) >= 0 && len(d.Units) > 0 {
				touches = true
				break
			}
		}
		if touches {
			active = append(active, vt)
		}
	}

	ls := &legacySpace{}
	cur := make(resource.Vec, shape.NumDims())
	var gen func(gi, di int)
	gen = func(gi, di int) {
		if gi == shape.NumGroups() {
			ls.nodes = append(ls.nodes, cur.Clone())
			return
		}
		lo, hi := shape.GroupRange(gi)
		g := shape.Group(gi)
		dim := lo + di
		if dim == hi {
			gen(gi+1, 0)
			return
		}
		min := 0
		if di > 0 {
			min = cur[dim-1]
		}
		for v := min; v <= g.Cap; v++ {
			cur[dim] = v
			gen(gi, di+1)
		}
		cur[dim] = 0
	}
	gen(0, 0)
	ls.index = make(map[string]int, len(ls.nodes))
	for i, n := range ls.nodes {
		ls.index[shape.Key(n)] = i
	}

	n, T := len(ls.nodes), len(active)
	ls.succOff = make([]int32, n+1)
	ls.tOff = make([]int32, n*T+1)
	for i := 0; i < n; i++ {
		var union []int32
		for t := range active {
			pls := resource.Placements(shape, ls.nodes[i], active[t])
			for _, pl := range pls {
				j := int32(ls.index[pl.Key])
				ls.tSucc = append(ls.tSucc, j)
				ls.assigns = append(ls.assigns, pl.Assign)
				dup := false
				for _, e := range union {
					if e == j {
						dup = true
						break
					}
				}
				if !dup {
					union = append(union, j)
				}
			}
			k := i*T + t
			ls.tOff[k+1] = ls.tOff[k] + int32(len(pls))
		}
		ls.succ = append(ls.succ, union...)
		ls.succOff[i+1] = ls.succOff[i] + int32(len(union))
	}
	return ls
}

// TestArenaLegacyEquivalence proves the arena build bitwise against
// the reference across seeded random shapes: node ids and profiles,
// union CSR, typed successor order, and representative assignments.
func TestArenaLegacyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 30; trial++ {
		shape, types := randomSetup(rng)
		for _, workers := range []int{1, 4} {
			got, err := NewSpace(shape, types, Options{Workers: workers})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			ref := legacyBuild(t, shape, types)

			if got.Len() != len(ref.nodes) {
				t.Fatalf("trial %d: %d nodes, want %d", trial, got.Len(), len(ref.nodes))
			}
			for i := range ref.nodes {
				if !got.Node(i).Equal(ref.nodes[i]) {
					t.Fatalf("trial %d: node %d = %v, want %v", trial, i, got.Node(i), ref.nodes[i])
				}
			}
			// Arithmetic index must agree with the map on every profile —
			// canonical and shuffled — and reject foreign profiles.
			for i := range ref.nodes {
				if got.Index(ref.nodes[i]) != i {
					t.Fatalf("trial %d: Index(%v) = %d, want %d", trial, ref.nodes[i], got.Index(ref.nodes[i]), i)
				}
				v := ref.nodes[i].Clone()
				rng.Shuffle(len(v), func(a, b int) { v[a], v[b] = v[b], v[a] })
				want, ok := ref.index[shape.Key(v)]
				if !ok {
					want = -1 // shuffling across group boundaries can leave the lattice
				}
				if got.Index(v) != want {
					t.Fatalf("trial %d: Index(%v) = %d, want %d", trial, v, got.Index(v), want)
				}
			}

			if !reflect.DeepEqual(got.succOff, ref.succOff) {
				t.Fatalf("trial %d workers=%d: union offsets differ", trial, workers)
			}
			if !equalEdges(got.succ, ref.succ) {
				t.Fatalf("trial %d workers=%d: union edges differ", trial, workers)
			}
			typed := decodeTyped(t, got)
			if !reflect.DeepEqual(typed.off, ref.tOff) {
				t.Fatalf("trial %d workers=%d: typed offsets differ", trial, workers)
			}
			if !equalEdges(typed.succ, ref.tSucc) {
				t.Fatalf("trial %d workers=%d: typed edges differ", trial, workers)
			}
			if len(typed.assign) != len(ref.assigns) {
				t.Fatalf("trial %d: %d assignments, want %d", trial, len(typed.assign), len(ref.assigns))
			}
			for k := range ref.assigns {
				if !reflect.DeepEqual(typed.assign[k], ref.assigns[k]) {
					t.Fatalf("trial %d: assignment %d = %v, want %v", trial, k, typed.assign[k], ref.assigns[k])
				}
			}
		}
	}
}

// equalEdges compares edge arenas treating nil and empty as equal
// (the arena build sizes exactly; the reference appends lazily).
func equalEdges(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWireGOMAXPROCSDeterministic pins the satellite contract
// directly: the same seed must produce bitwise-identical arenas when
// the process runs the wire phase at GOMAXPROCS 1 and 4 (the Workers
// default follows GOMAXPROCS).
func TestWireGOMAXPROCSDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	shape, types := randomSetup(rng)
	builds := make([]*Space, 2)
	for bi, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		s, err := NewSpace(shape, types, Options{}) // Workers: 0 → GOMAXPROCS
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		builds[bi] = s
	}
	a, b := builds[0], builds[1]
	if !reflect.DeepEqual(a.succOff, b.succOff) || !equalEdges(a.succ, b.succ) ||
		!reflect.DeepEqual(decodeTyped(t, a), decodeTyped(t, b)) {
		t.Fatal("wire output differs between GOMAXPROCS 1 and 4")
	}
}
