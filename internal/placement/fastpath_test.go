package placement

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pagerankvm/internal/obs"
	"pagerankvm/internal/obs/record"
	"pagerankvm/internal/ranktable"
	"pagerankvm/internal/resource"
)

// enumOnly hides a ranker's FastRanker methods, so a placer over it
// scores every candidate through enumerate: the differential oracle.
type enumOnly struct{ ranktable.Ranker }

// pmTypesOf names the PM types of an inventory.
func pmTypesOf(fleets []trajFleet) []string {
	out := make([]string, len(fleets))
	for i, f := range fleets {
		out[i] = f.pmType
	}
	return out
}

// enumRegistry returns reg with each named PM type's ranker wrapped in
// enumOnly.
func enumRegistry(t *testing.T, reg *ranktable.Registry, pmTypes ...string) *ranktable.Registry {
	t.Helper()
	out := ranktable.NewRegistry()
	for _, pmType := range pmTypes {
		r, ok := reg.Get(pmType)
		if !ok {
			t.Fatalf("no ranker for PM type %q", pmType)
		}
		out.Add(pmType, enumOnly{r})
	}
	return out
}

// trajFleet is one PM type of a trajectory's inventory: its shape and
// the demands of the trajectory's VM types on it. VM types are matched
// by name across fleets; one a fleet lacks has no demand there.
type trajFleet struct {
	pmType  string
	shape   *resource.Shape
	vmTypes []resource.VMType
}

// trajSpec sizes a trajectory. churn adds, to the arrivals and
// departures every trajectory has, everything else that touches a PM
// or the lists between two scans: migrations (Place with exclude),
// tentative release → re-Host, cordon and uncordon, Retire, Reorder.
// built names the VM types the rank tables were built over where the
// requests are not drawn from exactly those (nil: fleets); record
// attaches a decision recorder to the placer.
type trajSpec struct {
	fleets []trajFleet
	built  []trajFleet
	numPMs int // interleaved across the fleets
	steps  int
	churn  bool
	record bool
}

// trajStep records one placement decision.
type trajStep struct {
	pmID    int
	accom   uint64 // Float64bits of the placer's ScoreOn for the chosen PM
	score   uint64 // Float64bits of the resulting profile's rank
	profile string // canonical profile key of the chosen PM after hosting
	ties    int64  // what the decision added to placement.ties_broken
}

// trajResult is everything two engines must agree on — and, from
// usedSeen on, what they need not: an engine that scans the open list
// visits fewer PMs than the used list holds.
type trajResult struct {
	steps          []trajStep
	maxUsed        int
	profiles, ties int64 // the placement.* counter totals
	rngNext        int64 // the tie-break generator's next draw after the run

	usedSeen, scanned    int64 // used-list lengths summed over the Place calls; placement.pms_scanned
	closed, reopened     int64
	memoHits, memoMisses int64
}

// runTrajectory drives a seeded operation sequence through a placer and
// records every decision: chosen PM, the accommodation score the placer
// reports for it, the canonical profile it ends up with and that
// profile's bitwise rank. Runs with the same spec and seed see
// identical clusters and identical request streams as long as their
// decisions agree.
func runTrajectory(t *testing.T, reg *ranktable.Registry, spec trajSpec, seed int64) trajResult {
	t.Helper()
	pms := make([]*PM, spec.numPMs)
	for i := range pms {
		f := spec.fleets[i%len(spec.fleets)]
		pms[i] = NewPM(i, f.pmType, f.shape)
	}
	c := NewCluster(pms)
	o := obs.New()
	opts := []PageRankOption{WithSeed(99), WithObserver(o)}
	if spec.record {
		opts = append(opts, WithRecorder(record.NewCollector()))
	}
	p := NewPageRankVM(reg, opts...)
	if spec.built == nil {
		spec.built = spec.fleets
	}
	built := map[string][]resource.VMType{}
	for _, f := range spec.built {
		built[f.pmType] = f.vmTypes
	}

	// The VM type names, in first-seen order, and each one's demands.
	var names []string
	req := map[string]map[string]resource.VMType{}
	for _, f := range spec.fleets {
		for _, vt := range f.vmTypes {
			if req[vt.Name] == nil {
				req[vt.Name] = map[string]resource.VMType{}
				names = append(names, vt.Name)
			}
			req[vt.Name][f.pmType] = vt
		}
	}

	rng := rand.New(rand.NewSource(seed))
	var res trajResult
	var live []*VM
	retired := 0
	// decide asks the placer where vm goes (excluding src, if any) and
	// records the decision; commit hosts it there.
	tiesBroken := o.Counter("placement.ties_broken")
	decide := func(vm *VM, exclude *PM, commit bool) bool {
		res.usedSeen += int64(c.NumUsed())
		ties0 := tiesBroken.Value()
		pm, assign, err := p.Place(c, vm, exclude)
		if err != nil {
			if err == ErrNoCapacity {
				return false
			}
			t.Fatal(err)
		}
		accom, ok := p.ScoreOn(pm, vm)
		if !ok {
			t.Fatalf("ScoreOn rejects the PM Place chose (pm %d, vm %d)", pm.ID, vm.ID)
		}
		after := pm.Used().Add(assign.Vec(pm.Shape))
		ranker, _ := reg.Get(pm.Type)
		score, ok := ranker.Score(after)
		if !ok {
			t.Fatalf("resulting profile %v not scorable", after)
		}
		res.steps = append(res.steps, trajStep{
			pmID:    pm.ID,
			accom:   math.Float64bits(accom),
			score:   math.Float64bits(score),
			profile: pm.Shape.Key(after),
			ties:    tiesBroken.Value() - ties0,
		})
		if commit {
			if err := c.Host(pm, vm, assign); err != nil {
				t.Fatalf("Host after Place: %v", err)
			}
		}
		return true
	}
	// displace releases a random live VM and re-asks the placer with
	// its source excluded; the VM moves when commit is set and a
	// destination exists, and goes back exactly where it was otherwise.
	displace := func(commit bool) {
		vm := live[rng.Intn(len(live))]
		src, _ := c.Locate(vm.ID)
		h, err := c.Release(vm.ID)
		if err != nil {
			t.Fatal(err)
		}
		p.ScoreOn(src, vm) // the descheduler's source score: fills src's memo mid-move
		if !decide(vm, src, commit) || !commit {
			if err := c.Host(src, vm, h.Assign); err != nil {
				t.Fatalf("re-host: %v", err)
			}
		}
	}
	for i := 0; i < spec.steps; i++ {
		op := rng.Intn(100)
		switch {
		case op < 25 && len(live) > 0:
			k := rng.Intn(len(live))
			if _, err := c.Release(live[k].ID); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
		case !spec.churn || op < 60 || len(live) == 0:
			name := names[rng.Intn(len(names))]
			vm := &VM{ID: 1000 + i, Type: name, Req: req[name]}
			if decide(vm, nil, true) {
				live = append(live, vm)
			}
		case op < 70:
			displace(true)
		case op < 80:
			displace(false)
		case op < 90:
			pm := c.PMs()[rng.Intn(len(c.PMs()))]
			pm.SetCordoned(!pm.Cordoned())
		case op < 93:
			if unused := c.UnusedPMs(); len(unused) > 0 && retired < spec.numPMs/8 {
				if err := c.Retire(unused[rng.Intn(len(unused))]); err != nil {
					t.Fatal(err)
				}
				retired++
			}
		default:
			ids := func(list []*PM) []int {
				out := make([]int, len(list))
				for i, pm := range list {
					out[i] = pm.ID
				}
				rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
				return out
			}
			if err := c.Reorder(ids(c.UsedPMs()), ids(c.UnusedPMs())); err != nil {
				t.Fatal(err)
			}
		}
		checkOpenList(t, c, built)
	}
	res.maxUsed = c.MaxUsed
	res.rngNext = p.rng.Int63()
	res.scanned = o.Counter("placement.pms_scanned").Value()
	res.closed = o.Counter("placement.pms_closed").Value()
	res.reopened = o.Counter("placement.pms_reopened").Value()
	res.profiles = o.Counter("placement.profiles_enumerated").Value()
	res.ties = tiesBroken.Value()
	res.memoHits = o.Counter("placement.memo_hits").Value()
	res.memoMisses = o.Counter("placement.memo_misses").Value()
	return res
}

// checkEquivalence runs the same trajectory through the memoised
// fast-path placer and through a placer that only enumerates (the
// differential oracle: it never touches the memo) and requires
// identical decisions —
// PM choice, bitwise accommodation and resulting scores, canonical
// resulting profile, ties broken, the MaxUsed metric — identical
// profiles_enumerated and ties_broken totals and the same next draw of
// the tie-break generator, which pins the candidate order and the tie
// draws. The enumerating placer visits every used PM on every call; the
// memoised one at most that (closed PMs drop out of its scan).
func checkEquivalence(t *testing.T, reg *ranktable.Registry, spec trajSpec, seed int64) trajResult {
	t.Helper()
	fast := runTrajectory(t, reg, spec, seed)
	slow := runTrajectory(t, enumRegistry(t, reg, pmTypesOf(spec.fleets)...), spec, seed)
	if len(fast.steps) != len(slow.steps) {
		t.Fatalf("seed %d: fast path made %d decisions, slow path %d", seed, len(fast.steps), len(slow.steps))
	}
	for i, f := range fast.steps {
		s := slow.steps[i]
		if f.pmID != s.pmID {
			t.Fatalf("seed %d step %d: fast chose pm %d, slow chose pm %d", seed, i, f.pmID, s.pmID)
		}
		if f.accom != s.accom || f.score != s.score {
			t.Fatalf("seed %d step %d: scores differ bitwise: %x/%x vs %x/%x", seed, i, f.accom, f.score, s.accom, s.score)
		}
		if f.profile != s.profile {
			t.Fatalf("seed %d step %d: resulting canonical profiles differ on pm %d", seed, i, f.pmID)
		}
		if f.ties != s.ties {
			t.Fatalf("seed %d step %d: fast broke %d ties, slow %d", seed, i, f.ties, s.ties)
		}
	}
	if fast.maxUsed != slow.maxUsed {
		t.Fatalf("seed %d: MaxUsed differs: fast %d, slow %d", seed, fast.maxUsed, slow.maxUsed)
	}
	if fast.profiles != slow.profiles || fast.ties != slow.ties || fast.rngNext != slow.rngNext {
		t.Fatalf("seed %d: counters differ: profiles_enumerated %d/%d, ties_broken %d/%d, next rng draw %d/%d",
			seed, fast.profiles, slow.profiles, fast.ties, slow.ties, fast.rngNext, slow.rngNext)
	}
	if fast.usedSeen != slow.usedSeen || slow.scanned != slow.usedSeen || fast.scanned > fast.usedSeen {
		t.Fatalf("seed %d: pms_scanned %d (fast) and %d (slow) of %d/%d used PMs met; want at most all, and all",
			seed, fast.scanned, slow.scanned, fast.usedSeen, slow.usedSeen)
	}
	if slow.closed+slow.reopened != 0 {
		t.Fatalf("seed %d: the enumerating placer closed %d PMs and reopened %d", seed, slow.closed, slow.reopened)
	}
	if slow.memoHits+slow.memoMisses != 0 {
		t.Fatalf("seed %d: the enumerating placer touched the memo (%d hits, %d misses)", seed, slow.memoHits, slow.memoMisses)
	}
	return fast
}

// factoredFleet is the production-style configuration: a multi-group
// shape under a factored ranker, where a PM's actual profile drifts out
// of canonical order and alignAssign must translate coordinates.
func factoredFleet(t *testing.T) (trajFleet, *ranktable.Factored) {
	t.Helper()
	shape := resource.MustShape(
		resource.Group{Name: "cpu", Dims: 3, Cap: 4},
		resource.Group{Name: "mem", Dims: 1, Cap: 6},
		resource.Group{Name: "disk", Dims: 2, Cap: 5},
	)
	vmTypes := []resource.VMType{
		resource.NewVMType("s",
			resource.Demand{Group: "cpu", Units: []int{1}},
			resource.Demand{Group: "mem", Units: []int{1}},
		),
		resource.NewVMType("m",
			resource.Demand{Group: "cpu", Units: []int{1, 1}},
			resource.Demand{Group: "mem", Units: []int{2}},
			resource.Demand{Group: "disk", Units: []int{2}},
		),
		resource.NewVMType("l",
			resource.Demand{Group: "cpu", Units: []int{2, 2}},
			resource.Demand{Group: "disk", Units: []int{1, 1}},
		),
	}
	f, err := ranktable.NewFactored(shape, vmTypes, ranktable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !f.Fast() {
		t.Fatal("factored ranker did not offer the fast path")
	}
	return trajFleet{pmType: "big", shape: shape, vmTypes: vmTypes}, f
}

// TestFastPathEquivalenceJoint is the ISSUE's acceptance test for the
// joint ranker: the id-indexed path and enumeration must make
// byte-identical placement decisions over randomized arrival/departure
// trajectories.
func TestFastPathEquivalenceJoint(t *testing.T) {
	reg := smallRegistry(t)
	spec := trajSpec{fleets: []trajFleet{{pmSmall, smallShape(), smallVMTypes()}}, numPMs: 6, steps: 120}
	for seed := int64(1); seed <= 6; seed++ {
		checkEquivalence(t, reg, spec, seed)
	}
}

// TestFastPathEquivalenceFactored covers the factored ranker (the
// production configuration for large PM types), including multi-group
// shapes where the PM's actual profile drifts out of canonical order
// and alignAssign must translate coordinates.
func TestFastPathEquivalenceFactored(t *testing.T) {
	fleet, f := factoredFleet(t)
	reg := ranktable.NewRegistry()
	reg.Add(fleet.pmType, f)
	spec := trajSpec{fleets: []trajFleet{fleet}, numPMs: 5, steps: 120}
	for seed := int64(1); seed <= 6; seed++ {
		checkEquivalence(t, reg, spec, seed)
	}
}

// churnFleets is a two-PM-type inventory — a joint table and a factored
// ranker — whose VM types overlap: s, m and l have demands on both PM
// types, w only on the small one.
func churnFleets(t *testing.T, opts ranktable.Options) ([]trajFleet, *ranktable.Registry) {
	t.Helper()
	big, f := factoredFleet(t)
	small := trajFleet{pmType: pmSmall, shape: smallShape(), vmTypes: []resource.VMType{
		resource.NewVMType("s", resource.Demand{Group: "cpu", Units: []int{1}}),
		resource.NewVMType("m", resource.Demand{Group: "cpu", Units: []int{1, 1}}),
		resource.NewVMType("l", resource.Demand{Group: "cpu", Units: []int{2, 2}}),
		resource.NewVMType("w", resource.Demand{Group: "cpu", Units: []int{1, 1, 1, 1}}),
	}}
	table, err := ranktable.NewJoint(small.shape, small.vmTypes, opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := ranktable.NewRegistry()
	reg.Add(small.pmType, table)
	reg.Add(big.pmType, f)
	return []trajFleet{small, big}, reg
}

// TestMemoChurnEquivalence is the differential test of the per-PM memo
// (DESIGN.md §16): long trajectories that interleave every operation
// that can come between two scans of a PM — host, release, migration
// with the source excluded, tentative release → re-Host, cordon and
// uncordon, Retire, Reorder — must leave the memoised placer and the
// enumerating one in bit-for-bit agreement, and the memo must have
// actually served most of those scans. The open list (§16 "The open
// list") rides the same trajectories: runTrajectory checks its
// invariants after every step, the enumerating placer is the
// full-used-list oracle, and the trajectory must have closed and
// reopened PMs for that to mean anything.
func TestMemoChurnEquivalence(t *testing.T) {
	fleets, reg := churnFleets(t, ranktable.Options{})
	spec := trajSpec{fleets: fleets, numPMs: 40, steps: 2000, churn: true}
	for seed := int64(1); seed <= 3; seed++ {
		fast := checkEquivalence(t, reg, spec, seed)
		if fast.memoHits <= fast.memoMisses {
			t.Fatalf("seed %d: memo served %d of %d evaluations; the trajectory does not exercise it",
				seed, fast.memoHits, fast.memoHits+fast.memoMisses)
		}
		if fast.closed == 0 || fast.reopened == 0 || fast.scanned >= fast.usedSeen {
			t.Fatalf("seed %d: %d PMs closed, %d reopened, %d of %d used PMs visited; the trajectory does not exercise the open list",
				seed, fast.closed, fast.reopened, fast.scanned, fast.usedSeen)
		}
	}
}

// TestMemoOwnership: two placers over different registries alternating
// on one cluster must never read each other's memo entries — every
// score either reports equals what its own enumerating twin (which
// never touches the memo) computes, through mutations in between.
func TestMemoOwnership(t *testing.T) {
	fleets, regA := churnFleets(t, ranktable.Options{})
	_, regB := churnFleets(t, ranktable.Options{Mode: ranktable.ModeForwardPR})
	type pair struct{ memo, oracle *PageRankVM }
	pairs := []pair{
		{NewPageRankVM(regA), NewPageRankVM(enumRegistry(t, regA, pmTypesOf(fleets)...))},
		{NewPageRankVM(regB), NewPageRankVM(enumRegistry(t, regB, pmTypesOf(fleets)...))},
	}
	pms := make([]*PM, 12)
	for i := range pms {
		f := fleets[i%len(fleets)]
		pms[i] = NewPM(i, f.pmType, f.shape)
	}
	c := NewCluster(pms)
	req := map[string]resource.VMType{}
	for _, f := range fleets {
		req[f.pmType] = f.vmTypes[1] // "m": fits both PM types
	}
	rng := rand.New(rand.NewSource(5))
	differ := false
	for i := 0; i < 300; i++ {
		vm := &VM{ID: i, Type: "m", Req: req}
		var scores [2]float64
		for k, pr := range pairs {
			for _, pm := range c.PMs() {
				got, gotOK := pr.memo.ScoreOn(pm, vm)
				want, wantOK := pr.oracle.ScoreOn(pm, vm)
				if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d placer %d pm %d: memoised ScoreOn = %v,%v, own registry says %v,%v",
						i, k, pm.ID, got, gotOK, want, wantOK)
				}
				scores[k] += got
			}
		}
		differ = differ || scores[0] != scores[1]
		// Mutate through alternating placers so each scan above meets
		// entries the other placer filled at the same gen.
		pm, assign, err := pairs[i%2].memo.Place(c, vm, nil)
		if err == nil {
			err = c.Host(pm, vm, assign)
		}
		if err != nil && err != ErrNoCapacity {
			t.Fatal(err)
		}
		if id := rng.Intn(i + 1); rng.Intn(3) == 0 {
			if _, placed := c.Locate(id); placed {
				if _, err := c.Release(id); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if !differ {
		t.Fatal("the two registries never scored differently; the test cannot tell the placers apart")
	}
}

// checkFallback runs trajectories of VM types the registry's rankers
// hold no precomputed moves for: the default placer must then select
// enumeration by itself — no evaluation touches the memo — and decide
// exactly as the enumOnly oracle does.
func checkFallback(t *testing.T, reg *ranktable.Registry, spec trajSpec) {
	t.Helper()
	for seed := int64(1); seed <= 3; seed++ {
		got := checkEquivalence(t, reg, spec, seed)
		if len(got.steps) < spec.steps/4 {
			t.Fatalf("seed %d: only %d of %d steps placed a VM", seed, len(got.steps), spec.steps)
		}
		if got.memoHits+got.memoMisses != 0 {
			t.Fatalf("seed %d: %d evaluations went through the memo; the fallback was not selected",
				seed, got.memoHits+got.memoMisses)
		}
	}
}

// TestFallbackOutsideBuildSet: a VM type the rank table was not built
// over still places — its resulting profiles are in the table, only
// the precomputed moves are missing.
func TestFallbackOutsideBuildSet(t *testing.T) {
	outside := []resource.VMType{
		resource.NewVMType("[2]", resource.Demand{Group: "cpu", Units: []int{2}}),
		resource.NewVMType("[2,1,1]", resource.Demand{Group: "cpu", Units: []int{2, 1, 1}}),
	}
	checkFallback(t, smallRegistry(t), trajSpec{fleets: []trajFleet{{pmSmall, smallShape(), outside}}, numPMs: 6, steps: 120})

	fleet, f := factoredFleet(t)
	fleet.vmTypes = []resource.VMType{resource.NewVMType("xl",
		resource.Demand{Group: "cpu", Units: []int{3}},
		resource.Demand{Group: "mem", Units: []int{3}},
	)}
	reg := ranktable.NewRegistry()
	reg.Add(fleet.pmType, f)
	checkFallback(t, reg, trajSpec{fleets: []trajFleet{fleet}, numPMs: 5, steps: 120})

	// A closed PM is closed for the table's VM types only: a VM of any
	// other type gets the whole used list. PM 0 of the fixture is
	// closed with room for exactly one [2]; then the same, mixed into
	// trajectories of the table's own types, against the enumerating
	// placer.
	fix, pms := twoFreeFixture(t)
	if got := fix.check(fix.p, two, nil); got != pms[0] {
		t.Fatalf("a [2] went to pm %d, want closed pm 0, the one used PM it fits", idOf(got))
	}
	fix.wantClosed(true, pms[0])
	built := trajFleet{pmSmall, smallShape(), smallVMTypes()}
	mixed := trajFleet{pmSmall, smallShape(), append(smallVMTypes(), outside...)}
	spec := trajSpec{fleets: []trajFleet{mixed}, built: []trajFleet{built}, numPMs: 30, steps: 1500, churn: true}
	for seed := int64(1); seed <= 3; seed++ {
		if got := checkEquivalence(t, smallRegistry(t), spec, seed); got.closed == 0 {
			t.Fatalf("seed %d: no PM was ever closed; the trajectory does not test the fallback against the open list", seed)
		}
	}
}

// TestFallbackDuplicateGroupDemand: a demand naming one group twice
// breaks the per-group independence a Factored ranker's precomputed
// moves rely on, so the ranker declines the type and the placer
// enumerates it.
func TestFallbackDuplicateGroupDemand(t *testing.T) {
	fleet, _ := factoredFleet(t)
	fleet.vmTypes = append(fleet.vmTypes, resource.VMType{Name: "dup", Demands: []resource.Demand{
		{Group: "cpu", Units: []int{1}},
		{Group: "cpu", Units: []int{2}},
		{Group: "mem", Units: []int{1}},
	}})
	f, err := ranktable.NewFactored(fleet.shape, fleet.vmTypes, ranktable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.ResolveType(fleet.vmTypes[3]); ok {
		t.Fatal("factored ranker offers precomputed moves for a duplicate-group demand")
	}
	reg := ranktable.NewRegistry()
	reg.Add(fleet.pmType, f)
	fleet.vmTypes = fleet.vmTypes[3:]
	checkFallback(t, reg, trajSpec{fleets: []trajFleet{fleet}, numPMs: 5, steps: 120})
}

// TestLoadedTableTrajectory: a placer over a table read back from its
// Save bytes is the placer over the built table — same decisions, same
// counters, and the memo serves the same share of evaluations.
func TestLoadedTableTrajectory(t *testing.T) {
	built, err := ranktable.NewJoint(smallShape(), smallVMTypes(), ranktable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := built.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ranktable.LoadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	spec := trajSpec{fleets: []trajFleet{{pmSmall, smallShape(), smallVMTypes()}}, numPMs: 12, steps: 600, churn: true}
	run := func(table *ranktable.Table) trajResult {
		reg := ranktable.NewRegistry()
		reg.Add(pmSmall, table)
		return runTrajectory(t, reg, spec, 7)
	}
	want, got := run(built), run(loaded)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded table diverges from the built one: %d/%d steps, memo %d/%d hits %d/%d misses",
			len(got.steps), len(want.steps), got.memoHits, want.memoHits, got.memoMisses, want.memoMisses)
	}
	if got.memoHits <= got.memoMisses {
		t.Fatalf("memo served %d of %d evaluations on the loaded table", got.memoHits, got.memoHits+got.memoMisses)
	}
}

// TestWideShapeEnumerates: typed successor lists record dimension
// indices in a byte, so a joint table over more than 256 dimensions
// builds without a move table, says so (Fast() == false), and the
// placer serves it through enumerate — with the decisions of a control
// fleet whose shape is the same cpu group alone and whose table is
// fast. The padding group is never demanded and sized so that total
// capacity, hence every utilization, is the control's times a power of
// two: the wide table's scores are the control's scaled exactly, and
// the two runs must agree PM for PM and profile for profile.
func TestWideShapeEnumerates(t *testing.T) {
	cpu := resource.Group{Name: "cpu", Dims: 3, Cap: 2}
	const shift = 6 // (6 + 378) units = 6 << shift
	vmTypes := []resource.VMType{
		resource.NewVMType("1", resource.Demand{Group: "cpu", Units: []int{1}}),
		resource.NewVMType("11", resource.Demand{Group: "cpu", Units: []int{1, 1}}),
		resource.NewVMType("21", resource.Demand{Group: "cpu", Units: []int{2, 1}}),
	}
	run := func(shape *resource.Shape, wantFast bool) trajResult {
		table, err := ranktable.NewJoint(shape, vmTypes, ranktable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if table.Fast() != wantFast {
			t.Fatalf("%d-dimension table: Fast() = %v, want %v", shape.NumDims(), table.Fast(), wantFast)
		}
		reg := ranktable.NewRegistry()
		reg.Add("pm", table)
		spec := trajSpec{fleets: []trajFleet{{"pm", shape, vmTypes}}, numPMs: 6, steps: 150, churn: true}
		return runTrajectory(t, reg, spec, 5)
	}
	control := run(resource.MustShape(cpu), true)
	wide := run(resource.MustShape(cpu, resource.Group{Name: "pad", Dims: 378, Cap: 1}), false)
	if wide.memoHits+wide.memoMisses != 0 || control.memoHits == 0 {
		t.Fatalf("memo use: wide %d hits %d misses (want none: it enumerates), control %d hits",
			wide.memoHits, wide.memoMisses, control.memoHits)
	}
	if len(wide.steps) != len(control.steps) || len(wide.steps) == 0 {
		t.Fatalf("wide shape made %d decisions, control %d", len(wide.steps), len(control.steps))
	}
	scale := func(bits uint64) uint64 {
		return math.Float64bits(math.Ldexp(math.Float64frombits(bits), -shift*ranktable.DefaultRewardExponent))
	}
	for i, w := range wide.steps {
		c := control.steps[i]
		if w.pmID != c.pmID || w.profile[:cpu.Dims] != c.profile || w.accom != scale(c.accom) || w.score != scale(c.score) {
			t.Fatalf("step %d: wide shape chose pm %d → %q scoring %x, control pm %d → %q scoring %x",
				i, w.pmID, w.profile[:cpu.Dims], w.accom, c.pmID, c.profile, c.accom)
		}
	}
}

// TestAlignAssign pins the canonical→actual translation on a profile
// that is far from canonical order. alignAssign works in place, so
// every call gets its own copy of the canonical move.
func TestAlignAssign(t *testing.T) {
	shape := resource.MustShape(resource.Group{Name: "cpu", Dims: 4, Cap: 4})
	used := resource.Vec{4, 0, 3, 1} // canonical: [0,1,3,4], perm = [1,3,2,0]
	canon := func() resource.Assignment {
		return resource.Assignment{{Dim: 0, Units: 2}, {Dim: 1, Units: 1}}
	}
	got := alignAssign(shape, used, canon())
	want := resource.Assignment{{Dim: 1, Units: 2}, {Dim: 3, Units: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("alignAssign = %v, want %v", got, want)
	}
	// The aligned result must have the same canonical form as the
	// canonical move applied to the canonical profile.
	result := shape.Canon(used.Add(got.Vec(shape)))
	wantResult := shape.Canon(shape.Canon(used).Add(canon().Vec(shape)))
	if !result.Equal(wantResult) {
		t.Fatalf("aligned result %v, want %v", result, wantResult)
	}
	// An already-canonical profile passes through unchanged.
	if id := alignAssign(shape, resource.Vec{0, 1, 3, 4}, canon()); !reflect.DeepEqual(id, canon()) {
		t.Fatalf("canonical profile changed the assignment: %v", id)
	}
}

// TestFastPathCacheInvalidation: the PM's cached node ids must refresh
// after host/release mutations.
func TestFastPathCacheInvalidation(t *testing.T) {
	c := newCluster(1)
	reg := smallRegistry(t)
	p := NewPageRankVM(reg)
	pm := c.PMs()[0]

	vmA := newVM(0, "[1,1]")
	got := place(t, c, p, vmA)
	if got != pm {
		t.Fatalf("placed on pm %d", got.ID)
	}
	s1, ok := p.ScoreOn(pm, newVM(1, "[1,1]"))
	if !ok {
		t.Fatal("ScoreOn failed")
	}
	// Mutate the PM and re-score: the answer must track the new profile.
	if _, err := c.Release(vmA.ID); err != nil {
		t.Fatal(err)
	}
	s2, ok := p.ScoreOn(pm, newVM(2, "[1,1]"))
	if !ok {
		t.Fatal("ScoreOn failed after release")
	}
	if math.Float64bits(s1) == math.Float64bits(s2) {
		t.Fatal("score did not change after the PM profile mutated; node-id cache is stale")
	}
	ranker, _ := reg.Get(pmSmall)
	demand, _ := newVM(3, "[1,1]").DemandOn(pmSmall)
	wantBest := -1.0
	for _, pl := range resource.Placements(pm.Shape, pm.Used(), demand) {
		if s, ok := ranker.Score(pl.Result); ok && s > wantBest {
			wantBest = s
		}
	}
	if math.Float64bits(s2) != math.Float64bits(wantBest) {
		t.Fatalf("ScoreOn = %v, enumeration max = %v", s2, wantBest)
	}
}
