package ranktable

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pagerankvm/internal/resource"
)

func multiGroupShape() *resource.Shape {
	return resource.MustShape(
		resource.Group{Name: "cpu", Dims: 3, Cap: 3},
		resource.Group{Name: "mem", Dims: 1, Cap: 4},
	)
}

func multiGroupTypes() []resource.VMType {
	return []resource.VMType{
		resource.NewVMType("a",
			resource.Demand{Group: "cpu", Units: []int{1, 1}},
			resource.Demand{Group: "mem", Units: []int{1}},
		),
		resource.NewVMType("b",
			resource.Demand{Group: "cpu", Units: []int{2}},
		),
		resource.NewVMType("c",
			resource.Demand{Group: "mem", Units: []int{2}},
		),
	}
}

// checkFastAgainstEnumeration pins every id-indexed answer to the
// enumeration it precomputes: ScoreIDs vs Score on every node of the
// (joint) lattice, and BestMove/Materialize vs a manual scan over
// resource.Placements. Scores must be bitwise equal, not just close.
func checkFastAgainstEnumeration(t *testing.T, fr FastRanker, shape *resource.Shape, vmTypes []resource.VMType, profiles []resource.Vec) {
	t.Helper()
	if !fr.Fast() {
		t.Fatal("ranker does not offer the fast path")
	}
	var ids []int32
	for _, p := range profiles {
		var ok bool
		ids, ok = fr.NodeIDs(p, ids)
		if !ok {
			t.Fatalf("NodeIDs failed for in-lattice profile %v", p)
		}
		want, ok := fr.Score(p)
		if !ok {
			t.Fatalf("Score failed for %v", p)
		}
		got, ok := fr.ScoreIDs(ids)
		if !ok {
			t.Fatalf("ScoreIDs failed for %v", p)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ScoreIDs(%v) = %v, Score = %v (not bitwise equal)", p, got, want)
		}

		for _, vt := range vmTypes {
			ref, ok := fr.ResolveType(vt)
			if !ok {
				t.Fatalf("ResolveType(%s) failed", vt.Name)
			}
			pls := resource.Placements(shape, p, vt)
			bestScore, found := -1.0, false
			for _, pl := range pls {
				s, ok := fr.Score(pl.Result)
				if !ok {
					t.Fatalf("Score failed for successor %v", pl.Result)
				}
				if s > bestScore {
					bestScore, found = s, true
				}
			}
			score, count, ok := fr.BestMove(ids, ref)
			if ok != found {
				t.Fatalf("BestMove(%v, %s) ok = %v, enumeration found = %v", p, vt.Name, ok, found)
			}
			if !found {
				continue
			}
			if count != len(pls) {
				t.Fatalf("BestMove(%v, %s) count = %d, want %d", p, vt.Name, count, len(pls))
			}
			if math.Float64bits(score) != math.Float64bits(bestScore) {
				t.Fatalf("BestMove(%v, %s) = %v, enumeration max = %v (not bitwise equal)", p, vt.Name, score, bestScore)
			}
			assign, ok := fr.Materialize(ids, ref)
			if !ok {
				t.Fatalf("Materialize(%v, %s) failed after successful BestMove", p, vt.Name)
			}
			canon := shape.Canon(p)
			result := canon.Add(assign.Vec(shape))
			if !shape.Valid(result) {
				t.Fatalf("Materialize(%v, %s) assignment %v overflows", p, vt.Name, assign)
			}
			s, ok := fr.Score(result)
			if !ok || math.Float64bits(s) != math.Float64bits(score) {
				t.Fatalf("Materialize(%v, %s) yields profile scoring %v, BestMove scored %v", p, vt.Name, s, score)
			}
		}
	}
}

func latticeProfiles(t *testing.T, shape *resource.Shape) []resource.Vec {
	t.Helper()
	// Walk the box [0..cap]^dims and keep one representative per
	// canonical class plus non-canonical permutations (NodeIDs must
	// canonicalize).
	caps := shape.Capacity()
	var out []resource.Vec
	cur := make(resource.Vec, shape.NumDims())
	var gen func(d int)
	gen = func(d int) {
		if d == len(cur) {
			out = append(out, cur.Clone())
			return
		}
		for v := 0; v <= caps[d]; v++ {
			cur[d] = v
			gen(d + 1)
		}
	}
	gen(0)
	return out
}

func TestTableFastPath(t *testing.T) {
	shape := resource.MustShape(resource.Group{Name: "cpu", Dims: 4, Cap: 4})
	table, err := NewJoint(shape, paperVMTypes(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkFastAgainstEnumeration(t, table, shape, paperVMTypes(), latticeProfiles(t, shape))
}

func TestFactoredFastPath(t *testing.T) {
	shape := multiGroupShape()
	f, err := NewFactored(shape, multiGroupTypes(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkFastAgainstEnumeration(t, f, shape, multiGroupTypes(), latticeProfiles(t, shape))
}

func TestFastPathRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		groups := []resource.Group{
			{Name: "cpu", Dims: 1 + rng.Intn(3), Cap: 2 + rng.Intn(2)},
			{Name: "mem", Dims: 1 + rng.Intn(2), Cap: 2 + rng.Intn(3)},
		}
		shape := resource.MustShape(groups...)
		var types []resource.VMType
		for k := 0; k < 1+rng.Intn(3); k++ {
			var demands []resource.Demand
			for _, g := range groups {
				if rng.Intn(3) == 0 {
					continue
				}
				units := make([]int, 1+rng.Intn(g.Dims))
				for u := range units {
					units[u] = 1 + rng.Intn(g.Cap)
				}
				demands = append(demands, resource.Demand{Group: g.Name, Units: units})
			}
			if len(demands) == 0 {
				demands = append(demands, resource.Demand{Group: "cpu", Units: []int{1}})
			}
			types = append(types, resource.NewVMType(string(rune('a'+k)), demands...))
		}
		profiles := latticeProfiles(t, shape)

		joint, err := NewJoint(shape, types, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkFastAgainstEnumeration(t, joint, shape, types, profiles)

		factored, err := NewFactored(shape, types, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkFastAgainstEnumeration(t, factored, shape, types, profiles)
	}
}

// TestResolveTypeRejectsImpostor: a type resolving by name but with
// different demands must be refused (the fast path would silently
// serve precomputed moves for the wrong demand otherwise).
func TestResolveTypeRejectsImpostor(t *testing.T) {
	table := paperTable(t)
	impostor := resource.NewVMType("[1,1]", resource.Demand{Group: "cpu", Units: []int{2, 2}})
	if _, ok := table.ResolveType(impostor); ok {
		t.Fatal("ResolveType accepted a type whose demands differ from the registered one")
	}
	if _, ok := table.ResolveType(resource.NewVMType("unknown")); ok {
		t.Fatal("ResolveType accepted an unknown type")
	}
}

// TestLoadedTableIsFast: a table read back from its Save bytes is
// indistinguishable from the one that was built — it offers the fast
// path, every node scores bitwise the same, every (node, type) has the
// same best move and assignment — and Save is deterministic, so the
// loaded table saves to the very bytes it was loaded from.
func TestLoadedTableIsFast(t *testing.T) {
	shape := resource.MustShape(resource.Group{Name: "cpu", Dims: 4, Cap: 4})
	types := append(paperVMTypes(), resource.NewVMType("[2]", resource.Demand{Group: "cpu", Units: []int{2}}))
	table, err := NewJoint(shape, types, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var saved, again, resaved bytes.Buffer
	if err := table.Save(&saved); err != nil {
		t.Fatal(err)
	}
	if err := table.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), again.Bytes()) {
		t.Fatal("two Saves of one table differ")
	}
	loaded, err := LoadTable(bytes.NewReader(saved.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Fast() {
		t.Fatal("loaded table does not offer the fast path")
	}
	if err := loaded.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), resaved.Bytes()) {
		t.Fatal("loaded table saves to different bytes than it was loaded from")
	}
	if loaded.Len() != table.Len() || loaded.NumTypes() != table.NumTypes() || loaded.Stats() != table.Stats() {
		t.Fatalf("loaded table has %d profiles, %d types, stats %+v; built one %d, %d, %+v",
			loaded.Len(), loaded.NumTypes(), loaded.Stats(), table.Len(), table.NumTypes(), table.Stats())
	}
	for id := 0; id < table.Len(); id++ {
		ids := []int32{int32(id)}
		want, _ := table.ScoreIDs(ids)
		got, ok := loaded.ScoreIDs(ids)
		if !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("node %d: loaded ScoreIDs = %v,%v, built %v", id, got, ok, want)
		}
		for _, vt := range types {
			ref, ok := table.ResolveType(vt)
			lref, lok := loaded.ResolveType(vt)
			if !ok || !lok || ref != lref {
				t.Fatalf("ResolveType(%s): built %v,%v, loaded %v,%v", vt.Name, ref, ok, lref, lok)
			}
			ws, wn, wok := table.BestMove(ids, ref)
			gs, gn, gok := loaded.BestMove(ids, lref)
			if gok != wok || gn != wn || math.Float64bits(gs) != math.Float64bits(ws) {
				t.Fatalf("node %d type %s: loaded BestMove = %v,%d,%v, built %v,%d,%v", id, vt.Name, gs, gn, gok, ws, wn, wok)
			}
			wa, wok := table.Materialize(ids, ref)
			ga, gok := loaded.Materialize(ids, lref)
			if gok != wok || !reflect.DeepEqual(ga, wa) {
				t.Fatalf("node %d type %s: loaded Materialize = %v,%v, built %v,%v", id, vt.Name, ga, gok, wa, wok)
			}
		}
	}
	checkFastAgainstEnumeration(t, loaded, shape, types, latticeProfiles(t, shape))
}

// TestNewFactoredParallelDeterministic: the concurrent per-group
// builds must produce identical tables regardless of scheduling, and
// identical to each other across repeated builds.
func TestNewFactoredParallelDeterministic(t *testing.T) {
	shape := multiGroupShape()
	ref, err := NewFactored(shape, multiGroupTypes(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 5; rep++ {
		got, err := NewFactored(shape, multiGroupTypes(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for gi := 0; gi < shape.NumGroups(); gi++ {
			if !reflect.DeepEqual(got.groups[gi].ids, ref.groups[gi].ids) {
				t.Fatalf("rep %d: group %d id-scores differ across builds", rep, gi)
			}
			if !reflect.DeepEqual(got.groups[gi].best, ref.groups[gi].best) {
				t.Fatalf("rep %d: group %d move tables differ across builds", rep, gi)
			}
		}
		if !reflect.DeepEqual(got.gtid, ref.gtid) || !reflect.DeepEqual(got.dem, ref.dem) ||
			!reflect.DeepEqual(got.feas, ref.feas) {
			t.Fatalf("rep %d: type bindings differ across builds", rep)
		}
	}
}

// TestTableWireWorkersIdentical: the move table is reduced inside the
// wiring chunks, as many in parallel as wired them, so every
// WireWorkers value must give the serial build's table bit for bit —
// scores, moves and winning dimensions — in every mode.
func TestTableWireWorkersIdentical(t *testing.T) {
	shape := resource.MustShape(
		resource.Group{Name: "cpu", Dims: 4, Cap: 8},
		resource.Group{Name: "mem", Dims: 1, Cap: 6},
	)
	types := append(multiGroupTypes(),
		resource.VMType{Name: "again", Demands: multiGroupTypes()[0].Demands},
		resource.NewVMType("twice",
			resource.Demand{Group: "cpu", Units: []int{3}},
			resource.Demand{Group: "cpu", Units: []int{1, 1}},
		),
	)
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, x := range v {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	for _, mode := range []Mode{ModeAbsorption, ModeReversePR, ModeForwardPR} {
		var ref *Table
		for _, workers := range []int{1, 2, 3, 8} {
			got, err := NewJoint(shape, types, Options{Mode: mode, WireWorkers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got.best == nil {
				t.Fatalf("%v workers=%d: no move table", mode, workers)
			}
			if ref == nil {
				ref = got
				continue
			}
			if !reflect.DeepEqual(bits(got.ids), bits(ref.ids)) {
				t.Fatalf("%v workers=%d: scores differ from the serial build", mode, workers)
			}
			if len(got.best) != len(ref.best) {
				t.Fatalf("%v workers=%d: %d moves, want %d", mode, workers, len(got.best), len(ref.best))
			}
			for k := range ref.best {
				g, r := got.best[k], ref.best[k]
				if g.count != r.count || math.Float64bits(g.score) != math.Float64bits(r.score) {
					t.Fatalf("%v workers=%d: move %d = %+v, want %+v", mode, workers, k, g, r)
				}
			}
			if !bytes.Equal(got.moveDims, ref.moveDims) || !reflect.DeepEqual(got.dimOff, ref.dimOff) {
				t.Fatalf("%v workers=%d: winning dimensions differ from the serial build", mode, workers)
			}
		}
	}
}

// TestWinnerTableMatchesEnumeration pins the winner-only move table to
// the executable spec: for random shapes and every (node, type) of a
// joint table and a factored ranker, BestMove's score (bitwise) and
// count and Materialize's assignment are those of the first maximum of
// a scan over resource.Placements + Score from the canonical profile.
// The type sets carry what the lattice's demand classes and pruning
// act on: a demand repeated under another name and a type with two
// demands on one group (which only the joint table resolves).
func TestWinnerTableMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		groups := []resource.Group{
			{Name: "cpu", Dims: 2 + rng.Intn(3), Cap: 2 + rng.Intn(2)},
			{Name: "mem", Dims: 1 + rng.Intn(2), Cap: 2 + rng.Intn(3)},
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
		for k := 0; k < 2+rng.Intn(2); k++ {
			demands := []resource.Demand{draw(groups[0])}
			if rng.Intn(3) > 0 {
				demands = append(demands, draw(groups[1]))
			}
			if rng.Intn(4) == 0 {
				demands = append(demands, draw(groups[0]))
			}
			types = append(types, resource.NewVMType(string(rune('a'+k)), demands...))
		}
		types = append(types, resource.VMType{Name: "again", Demands: types[rng.Intn(len(types))].Demands})

		joint, err := NewJoint(shape, types, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		factored, err := NewFactored(shape, types, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkReleased(t, "built", joint)
		var ids []int32
		for _, fr := range []FastRanker{joint, factored} {
			if !fr.Fast() {
				t.Fatalf("trial %d: %T does not offer the fast path", trial, fr)
			}
			for id := 0; id < joint.Len(); id++ {
				p := joint.space.Node(id)
				ids, _ = fr.NodeIDs(p, ids)
				for _, vt := range types {
					ref, ok := fr.ResolveType(vt)
					if !ok {
						if fr == FastRanker(joint) {
							t.Fatalf("trial %d: joint table does not resolve %v", trial, vt)
						}
						continue // two demands on one group: a Factored declines
					}
					pls := resource.Placements(shape, p, vt)
					var want resource.Assignment
					wantScore := -1.0
					for _, pl := range pls {
						if s, _ := fr.Score(pl.Result); s > wantScore {
							wantScore, want = s, pl.Assign
						}
					}
					score, count, ok := fr.BestMove(ids, ref)
					got, mok := fr.Materialize(ids, ref)
					if ok != (want != nil) || mok != ok {
						t.Fatalf("trial %d %T %v on %v: BestMove ok = %v, Materialize ok = %v, enumeration found %d", trial, fr, vt, p, ok, mok, len(pls))
					}
					if !ok {
						continue
					}
					if count != len(pls) || math.Float64bits(score) != math.Float64bits(wantScore) || !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d %T %v on %v: move %v scoring %v of %d, enumeration's first maximum is %v scoring %v of %d",
							trial, fr, vt, p, got, score, count, want, wantScore, len(pls))
					}
				}
			}
		}
	}
}

// TestSameNameTypesRejected: two VM types sharing a name but not
// demands used to bind the first one's demands to the last one's moves
// — BestMove scored another VM's demand and Materialize returned an
// assignment of the wrong size. Every builder now refuses the set; an
// exact repeat is harmless and still builds.
func TestSameNameTypesRejected(t *testing.T) {
	shape := resource.MustShape(
		resource.Group{Name: "cpu", Dims: 3, Cap: 4},
		resource.Group{Name: "mem", Dims: 1, Cap: 8},
	)
	small := resource.NewVMType("a",
		resource.Demand{Group: "cpu", Units: []int{1}}, resource.Demand{Group: "mem", Units: []int{1}})
	large := resource.NewVMType("a",
		resource.Demand{Group: "cpu", Units: []int{2, 2}}, resource.Demand{Group: "mem", Units: []int{3}})
	if _, err := NewFactored(shape, []resource.VMType{small, large}, Options{}); err == nil {
		t.Error("NewFactored accepted one name with two different demands")
	}
	if _, err := NewJoint(shape, []resource.VMType{small, large}, Options{Cache: NewCache(0, nil)}); err == nil {
		t.Error("NewJoint accepted one name with two different demands")
	}
	f, err := NewFactored(shape, []resource.VMType{small, small}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkFastAgainstEnumeration(t, f, shape, []resource.VMType{small}, latticeProfiles(t, shape))
}
