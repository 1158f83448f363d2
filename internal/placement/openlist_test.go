package placement

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"pagerankvm/internal/ranktable"
	"pagerankvm/internal/resource"
)

// checkOpenList verifies the open list's invariants (DESIGN.md §16 "The
// open list"): first-use numbers strictly increase along the used list;
// open is the used list filtered by not-closed, in the same order;
// nothing off the used list is marked closed; and every closed PM is
// closed in truth — for each VM type the owning placer's rank table was
// built over (built, by PM type), a fresh resource.Fits or BestMove on
// the PM's profile fails.
func checkOpenList(t *testing.T, c *Cluster, built map[string][]resource.VMType) {
	t.Helper()
	var open []*PM
	for i, pm := range c.used {
		if pm.seq >= c.nextSeq || i > 0 && pm.seq <= c.used[i-1].seq {
			t.Fatalf("used[%d] (pm %d) has first-use number %d after %d, next %d", i, pm.ID, pm.seq, c.used[max(i, 1)-1].seq, c.nextSeq)
		}
		if !pm.closed {
			open = append(open, pm)
			continue
		}
		var fr ranktable.FastRanker
		if c.openBy != nil {
			for _, b := range c.openBy.binds {
				if b.pmType == pm.Type {
					fr = b.fr
				}
			}
		}
		if fr == nil {
			t.Fatalf("pm %d is closed, but the open list's owner has no fast ranker for %s", pm.ID, pm.Type)
		}
		types := built[pm.Type]
		if len(types) != fr.NumTypes() {
			t.Fatalf("checkOpenList was given %d build-set types for %s, the ranker has %d", len(types), pm.Type, fr.NumTypes())
		}
		ids, inLattice := fr.NodeIDs(pm.used, nil)
		for _, vt := range types {
			if !resource.Fits(pm.Shape, pm.used, vt) {
				continue
			}
			ref, ok := fr.ResolveType(vt)
			if !ok || !inLattice {
				t.Fatalf("pm %d is closed, but %s fits %v and is not served from the move table", pm.ID, vt.Name, pm.used)
			}
			if _, _, ok := fr.BestMove(ids, ref); ok {
				t.Fatalf("pm %d is closed, but takes a %s at %v", pm.ID, vt.Name, pm.used)
			}
		}
	}
	if !slices.Equal(c.open, open) {
		t.Fatalf("open list %v, want the used list without closed PMs %v", pmIDs(c.open), pmIDs(open))
	}
	for _, pm := range c.unused {
		if pm.closed {
			t.Fatalf("unused pm %d is marked closed", pm.ID)
		}
	}
	for _, pm := range c.pms {
		checkHosted(t, c, pm)
	}
}

// idOf is pm's id, -1 for none.
func idOf(pm *PM) int {
	if pm == nil {
		return -1
	}
	return pm.ID
}

func pmIDs(list []*PM) []int {
	ids := make([]int, len(list))
	for i, pm := range list {
		ids[i] = pm.ID
	}
	return ids
}

// TestOpenListMatchesRecordedScan: a recorder makes Place scan the whole
// used list, which makes the recorded run the oracle for the unrecorded
// one — same seed, same trajectory, and they must pick the same PM with
// the same score and tie count on every step and leave their tie-break
// generators in the same state, over a trajectory long enough to fill
// its 60 PMs, so that a good share of them is closed at any time.
func TestOpenListMatchesRecordedScan(t *testing.T) {
	fleets, reg := churnFleets(t, ranktable.Options{})
	spec := trajSpec{fleets: fleets, numPMs: 60, steps: 5000, churn: true}
	for seed := int64(1); seed <= 3; seed++ {
		bare := runTrajectory(t, reg, spec, seed)
		spec.record = true
		recorded := runTrajectory(t, reg, spec, seed)
		spec.record = false
		if !reflect.DeepEqual(bare.steps, recorded.steps) {
			for i := range bare.steps {
				if i >= len(recorded.steps) || bare.steps[i] != recorded.steps[i] {
					t.Fatalf("seed %d step %d: unrecorded %+v, recorded %+v", seed, i, bare.steps[i], recorded.steps[min(i, len(recorded.steps)-1)])
				}
			}
			t.Fatalf("seed %d: %d decisions unrecorded, %d recorded", seed, len(bare.steps), len(recorded.steps))
		}
		if bare.rngNext != recorded.rngNext || bare.profiles != recorded.profiles || bare.ties != recorded.ties || bare.maxUsed != recorded.maxUsed {
			t.Fatalf("seed %d: next rng draw %d/%d, profiles_enumerated %d/%d, ties_broken %d/%d, MaxUsed %d/%d",
				seed, bare.rngNext, recorded.rngNext, bare.profiles, recorded.profiles, bare.ties, recorded.ties, bare.maxUsed, recorded.maxUsed)
		}
		if recorded.scanned != recorded.usedSeen || recorded.closed != 0 {
			t.Fatalf("seed %d: the recorded run visited %d of %d used PMs and closed %d; it must scan the whole list",
				seed, recorded.scanned, recorded.usedSeen, recorded.closed)
		}
		if 4*bare.scanned > 3*bare.usedSeen {
			t.Fatalf("seed %d: the unrecorded run visited %d of %d used PMs; want a quarter skipped for this to test the open list",
				seed, bare.scanned, bare.usedSeen)
		}
	}
}

// Open-list fixtures: the small PM type under a table built over
// [1,1] and [1,1,1,1] (smallRegistry), the same plus [2], and one whose
// [4,4,4,4] fills a PM by itself.
var (
	two   = resource.NewVMType("[2]", resource.Demand{Group: "cpu", Units: []int{2}})
	whole = resource.NewVMType("[4,4,4,4]", resource.Demand{Group: "cpu", Units: []int{4, 4, 4, 4}})
)

func registryOver(t *testing.T, types []resource.VMType) *ranktable.Registry {
	t.Helper()
	table, err := ranktable.NewJoint(smallShape(), types, ranktable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := ranktable.NewRegistry()
	reg.Add(pmSmall, table)
	return reg
}

func vmOf(id int, vt resource.VMType) *VM {
	return &VM{ID: id, Type: vt.Name, Req: map[string]resource.VMType{pmSmall: vt}}
}

// openFixture is a cluster of small PMs with a placer, the VM types its
// table was built over, and an enumerating twin that only ever scores
// (ScoreOn): the oracle for what a scan of the whole used list finds.
type openFixture struct {
	t      *testing.T
	c      *Cluster
	p      *PageRankVM
	oracle *PageRankVM
	types  []resource.VMType
	nextID int
}

func newOpenFixture(t *testing.T, numPMs int, types []resource.VMType) *openFixture {
	reg := registryOver(t, types)
	return &openFixture{
		t: t, c: newCluster(numPMs), types: types, nextID: 1000,
		p: NewPageRankVM(reg), oracle: NewPageRankVM(enumRegistry(t, reg, pmSmall)),
	}
}

func (f *openFixture) vm(vt resource.VMType) *VM {
	f.nextID++
	return vmOf(f.nextID, vt)
}

// fill hosts VMs of type vt on pm, with greedy assignments, until no
// more fit.
func (f *openFixture) fill(pm *PM, vt resource.VMType) {
	for resource.Fits(pm.Shape, pm.Used(), vt) {
		mustHost(f.t, f.c, pm, f.vm(vt))
	}
}

// check asks p where a VM of type vt goes and holds the answer against
// the whole used list as the oracle scores it — the best score, any
// member of the tied set; failing that an unused PM or ErrNoCapacity —
// then checks the open list's invariants.
func (f *openFixture) check(p *PageRankVM, vt resource.VMType, exclude *PM) *PM {
	f.t.Helper()
	vm := f.vm(vt)
	best, tied := -1.0, []*PM(nil)
	for _, pm := range f.c.UsedPMs() {
		if pm == exclude || pm.Cordoned() {
			continue
		}
		switch score, ok := f.oracle.ScoreOn(pm, vm); {
		case !ok:
		case score > best*(1+scoreEpsilon):
			best, tied = score, []*PM{pm}
		case score >= best*(1-scoreEpsilon):
			tied = append(tied, pm)
		}
	}
	got, _, err := p.Place(f.c, vm, exclude)
	switch {
	case err != nil && !errors.Is(err, ErrNoCapacity):
		f.t.Fatal(err)
	case len(tied) > 0 && !slices.Contains(tied, got):
		f.t.Fatalf("a %s went to pm %d, the whole used list's best are pms %v", vt.Name, idOf(got), pmIDs(tied))
	case len(tied) == 0 && got != nil && (got.Active() || got == exclude):
		f.t.Fatalf("a %s went to used pm %d, which the oracle rejects", vt.Name, got.ID)
	}
	f.checkLists()
	return got
}

func (f *openFixture) checkLists() {
	f.t.Helper()
	checkOpenList(f.t, f.c, map[string][]resource.VMType{pmSmall: f.types})
}

// probe runs one check per build-set type, which is what it takes to
// close every PM that rejects them all.
func (f *openFixture) probe() {
	f.t.Helper()
	for _, vt := range f.types {
		f.check(f.p, vt, nil)
	}
}

func (f *openFixture) wantClosed(want bool, pms ...*PM) {
	f.t.Helper()
	for _, pm := range pms {
		if pm.closed != want {
			f.t.Fatalf("pm %d closed = %v, want %v (open list %v)", pm.ID, pm.closed, want, pmIDs(f.c.open))
		}
	}
}

// saturatedFixture returns a fixture over smallRegistry's types whose
// PMs 0-2 are full and closed, PM 3 half full, PMs 4-5 unused.
func saturatedFixture(t *testing.T) (*openFixture, []*PM) {
	f := newOpenFixture(t, 6, smallVMTypes())
	pms := f.c.PMs()
	for _, pm := range pms[:3] {
		f.fill(pm, f.types[1])
	}
	mustHost(t, f.c, pms[3], f.vm(f.types[1]))
	f.probe()
	f.wantClosed(true, pms[:3]...)
	f.wantClosed(false, pms[3:]...)
	return f, pms
}

// twoFreeFixture returns the saturated fixture with PM 0 at [4,4,4,2]:
// no room for a [1,1] or a [1,1,1,1], room for a [2]. It is closed.
func twoFreeFixture(t *testing.T) (*openFixture, []*PM) {
	f, pms := saturatedFixture(t)
	for _, id := range pms[0].VMIDs()[:2] {
		if _, err := f.c.Release(id); err != nil {
			t.Fatal(err)
		}
	}
	for d := 0; d < 3; d++ {
		if err := f.c.Host(pms[0], f.vm(two), resource.Assignment{{Dim: d, Units: 2}}); err != nil {
			t.Fatal(err)
		}
	}
	f.wantClosed(false, pms[0])
	f.probe()
	f.wantClosed(true, pms[0])
	return f, pms
}

// TestOpenListOwnership: who closes, who reopens, and what resets the
// open list — each case ends in decisions held against the whole used
// list and in the list invariants.
func TestOpenListOwnership(t *testing.T) {
	saturated, twoFree := saturatedFixture, twoFreeFixture
	withTwo := append(smallVMTypes(), two)

	t.Run("second placer", func(t *testing.T) {
		f, pms := twoFree(t)
		// q's table knows [2]; PM 0 is closed for p's types only.
		regQ := registryOver(t, withTwo)
		q := NewPageRankVM(regQ)
		f.oracle, f.types = NewPageRankVM(enumRegistry(t, regQ, pmSmall)), withTwo
		if got := f.check(q, two, nil); got != pms[0] {
			t.Fatalf("the second placer's [2] went to pm %d, want pm 0", idOf(got))
		}
		for _, vt := range withTwo {
			f.check(q, vt, nil)
		}
		f.wantClosed(false, pms[0])
		f.wantClosed(true, pms[1:3]...)
		// And p takes the list back.
		f.oracle, f.types = NewPageRankVM(enumRegistry(t, f.p.rankers, pmSmall)), smallVMTypes()
		f.probe()
		f.wantClosed(true, pms[:3]...)
		if f.c.openBy != f.p {
			t.Fatal("the open list is not p's after p scanned it")
		}
	})

	t.Run("ranker replaced", func(t *testing.T) {
		f, pms := twoFree(t)
		table, err := ranktable.NewJoint(smallShape(), withTwo, ranktable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		f.p.rankers.Add(pmSmall, table)
		f.oracle, f.types = NewPageRankVM(enumRegistry(t, f.p.rankers, pmSmall)), withTwo
		if got := f.check(f.p, two, nil); got != pms[0] {
			t.Fatalf("after the table was replaced a [2] went to pm %d, want pm 0", idOf(got))
		}
		f.probe()
		f.wantClosed(false, pms[0])
		f.wantClosed(true, pms[1:3]...)
	})

	t.Run("Reorder", func(t *testing.T) {
		f, pms := saturated(t)
		if err := f.c.Reorder([]int{3, 2, 1, 0}, []int{5, 4}); err != nil {
			t.Fatal(err)
		}
		f.checkLists()
		f.wantClosed(false, pms...)
		f.probe()
		f.wantClosed(true, pms[:3]...)
		if want := []*PM{pms[3]}; !slices.Equal(f.c.open, want) {
			t.Fatalf("open list %v after Reorder and a probe, want [3]", pmIDs(f.c.open))
		}
	})

	t.Run("Retire", func(t *testing.T) {
		f, pms := saturated(t)
		if err := f.c.Retire(pms[5]); err != nil {
			t.Fatal(err)
		}
		f.checkLists()
		f.wantClosed(true, pms[:3]...)
		// A closed PM reopens on its first release, leaves both lists on
		// its last, and can then be retired.
		for _, id := range pms[1].VMIDs() {
			if _, err := f.c.Release(id); err != nil {
				t.Fatal(err)
			}
			f.checkLists()
		}
		if err := f.c.Retire(pms[1]); err != nil {
			t.Fatal(err)
		}
		f.probe()
		if want := []*PM{pms[0], pms[2], pms[3]}; !slices.Equal(f.c.UsedPMs(), want) {
			t.Fatalf("used list %v, want [0 2 3]", pmIDs(f.c.UsedPMs()))
		}
	})

	t.Run("SetCordoned", func(t *testing.T) {
		f, pms := saturated(t)
		// Cordon is no input to a closure: a closed PM stays closed
		// through it, and one filled up while cordoned closes once
		// uncordoned and evaluated.
		pms[0].SetCordoned(true)
		f.probe()
		pms[0].SetCordoned(false)
		f.probe()
		f.wantClosed(true, pms[0])
		pms[3].SetCordoned(true)
		f.fill(pms[3], f.types[0])
		f.probe()
		f.wantClosed(false, pms[3])
		pms[3].SetCordoned(false)
		f.probe()
		f.wantClosed(true, pms[3])
		if _, err := f.c.Release(pms[3].VMIDs()[0]); err != nil {
			t.Fatal(err)
		}
		f.wantClosed(false, pms[3])
		f.probe()
	})

	t.Run("exclude a reopened source", func(t *testing.T) {
		f, pms := saturated(t)
		src := pms[1]
		h, err := f.c.Release(src.VMIDs()[0])
		if err != nil {
			t.Fatal(err)
		}
		f.wantClosed(false, src)
		if want := []*PM{src, pms[3]}; !slices.Equal(f.c.open, want) {
			t.Fatalf("open list %v after a release on closed pm 1, want [1 3]", pmIDs(f.c.open))
		}
		if got := f.check(f.p, f.types[1], src); got != pms[3] {
			t.Fatalf("with pm 1 excluded the VM went to pm %d, want pm 3", idOf(got))
		}
		if got := f.check(f.p, f.types[1], nil); got != src && got != pms[3] {
			t.Fatalf("without the exclusion the VM went to pm %d", idOf(got))
		}
		if err := f.c.Host(src, h.VM, h.Assign); err != nil {
			t.Fatal(err)
		}
		f.probe()
		f.wantClosed(true, src)
	})

	t.Run("Migrate restores an emptied source", func(t *testing.T) {
		// One [4,4,4,4] fills a PM: a closed source that empties on the
		// release and comes back at the tail of both lists.
		f := newOpenFixture(t, 4, []resource.VMType{smallVMTypes()[0], whole})
		pms := f.c.PMs()
		vm := f.vm(whole)
		mustHost(t, f.c, pms[0], vm)
		mustHost(t, f.c, pms[1], f.vm(f.types[0]))
		f.probe()
		f.wantClosed(true, pms[0])
		refused := false
		_, dest, err := f.c.Migrate(f.p, vm.ID, func(Hosted, *PM, resource.Assignment) bool {
			refused = true
			f.checkLists()
			if slices.Contains(f.c.UsedPMs(), pms[0]) {
				t.Fatal("the emptied source is still on the used list")
			}
			return false
		})
		if err != nil || dest != nil || !refused {
			t.Fatalf("Migrate = pm %d, %v (accept called: %v), want a refusal", idOf(dest), err, refused)
		}
		f.checkLists()
		if want := []*PM{pms[1], pms[0]}; !slices.Equal(f.c.UsedPMs(), want) || !slices.Equal(f.c.open, want) {
			t.Fatalf("used %v open %v after the restore, want [1 0] both", pmIDs(f.c.UsedPMs()), pmIDs(f.c.open))
		}
		f.probe()
		f.wantClosed(true, pms[0])
	})
}

// TestOpenListErrorMidScan: a scan that returns an error has already
// closed PMs; what it leaves must still be a list — the closed PMs out,
// everything it did not reach in, order kept.
func TestOpenListErrorMidScan(t *testing.T) {
	f := newOpenFixture(t, 4, smallVMTypes())
	pms := f.c.PMs()
	f.fill(pms[0], f.types[1])
	f.fill(pms[1], f.types[1])
	mustHost(t, f.c, pms[2], f.vm(f.types[1]))
	f.check(f.p, f.types[0], nil) // half of what closes PMs 0 and 1

	// A used PM of a type with no ranker, met after PMs 0-2, and a full
	// PM after it.
	const orphan = "orphan"
	odd := NewPM(9, orphan, smallShape())
	f.c.pms, f.c.unused = append(f.c.pms, odd), append(f.c.unused, odd)
	both := func(vt resource.VMType) *VM {
		vm := f.vm(vt)
		vm.Req = map[string]resource.VMType{pmSmall: vt, orphan: vt}
		return vm
	}
	mustHost(t, f.c, odd, both(f.types[0]))
	f.fill(pms[3], f.types[1])

	_, _, err := f.p.Place(f.c, both(f.types[1]), nil)
	if err == nil || errors.Is(err, ErrNoCapacity) {
		t.Fatalf("Place = %v, want the missing-ranker error", err)
	}
	f.checkLists()
	f.wantClosed(true, pms[0], pms[1])
	if want := []*PM{pms[2], odd, pms[3]}; !slices.Equal(f.c.open, want) {
		t.Fatalf("open list %v after the failed scan, want [2 9 3]", pmIDs(f.c.open))
	}
	// The orphan type is bound now: a VM with a demand on it gets the
	// whole used list (and the error again), one without gets the open
	// list and closes PM 3.
	if _, _, err := f.p.Place(f.c, both(f.types[0]), nil); err == nil {
		t.Fatal("second Place did not report the missing ranker")
	}
	f.wantClosed(false, pms[3])
	f.probe()
	f.wantClosed(true, pms[3])
}
