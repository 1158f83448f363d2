package placement

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"pagerankvm/internal/obs"
	"pagerankvm/internal/obs/record"
	"pagerankvm/internal/ranktable"
	"pagerankvm/internal/resource"
)

// PageRankVM is the paper's Algorithm 2: for a given VM it derives, on
// every used PM with sufficient resources, the set of possible PM
// profiles after accommodating every permutation of the VM's demands,
// looks the resulting profiles up in the Profile→PageRank score table,
// and places the VM where the best resulting profile scores highest.
//
// Score ties (PMs whose resulting profiles coincide) are broken
// uniformly at random with a seeded generator: the paper does not
// specify tie-breaking, and always taking the first candidate would
// pile consecutive same-tenant requests onto one PM.
type PageRankVM struct {
	rankers *ranktable.Registry
	rng     *rand.Rand

	// twoChoice enables the Section V-C variant: instead of scanning
	// the whole used list, sample two random used PMs and pick the
	// better one.
	twoChoice bool

	// binds holds one binding per PM type met, and epoch counts the ones
	// replaced because the registry's ranker changed — which voids every
	// open-list closure this placer made (Cluster.openFor). memoHits and
	// memoMisses tally evaluate's memo outcomes until Place flushes them
	// into placement.memo_{hits,misses} (one Add per call, not per
	// candidate).
	binds                []*binding
	epoch                uint64
	memoHits, memoMisses int64

	// obs and the pre-resolved met counters are nil without
	// WithObserver; every instrument call is then a no-op branch.
	obs *obs.Observer
	met placeMetrics

	// rec is the decision recorder (WithRecorder). When nil — the
	// default — Place skips candidate-set assembly and phase timing
	// entirely behind one boolean check, leaving the hot path intact.
	// recCands and recTied are scratch reused across decisions.
	rec      *record.Recorder
	recCands []record.Candidate
	recTied  []int
}

// binding is what Algorithm 2's candidate loop would otherwise redo per
// PM: per PM type, the ranker; per (PM type, VM), the quantized demand
// and fast-path type handle, re-resolved when the VM being placed
// changes. Its address is also the owner stamp of the per-PM caches
// (PM.bind): it stands for exactly one (placer, PM type, fast ranker),
// so two placers never read each other's entries.
type binding struct {
	owner  *PageRankVM // nil once superseded: the registry's ranker changed
	pmType string
	ranker ranktable.Ranker     // nil: no ranker registered for pmType
	fr     ranktable.FastRanker // ranker's id-indexed form, when it offers one

	vm        *VM // the VM the fields below are resolved for
	demand    resource.VMType
	hasDemand bool
	ref       ranktable.TypeRef
	fast      bool
}

// placeMetrics holds the placer's pre-resolved instruments so the
// Algorithm 2 hot path never does name lookups.
type placeMetrics struct {
	placeCalls      *obs.Counter // placement.place_calls
	pmsScanned      *obs.Counter // placement.pms_scanned
	pmsClosed       *obs.Counter // placement.pms_closed
	pmsReopened     *obs.Counter // placement.pms_reopened
	profilesScored  *obs.Counter // placement.profiles_enumerated
	tiesBroken      *obs.Counter // placement.ties_broken
	twoChoiceDraws  *obs.Counter // placement.two_choice_samples
	pmsOpened       *obs.Counter // placement.pms_opened
	noCapacity      *obs.Counter // placement.no_capacity
	evictionsScored *obs.Counter // placement.evictions_scored
	victimsSelected *obs.Counter // placement.victims_selected
	memoHits        *obs.Counter // placement.memo_hits
	memoMisses      *obs.Counter // placement.memo_misses

	// Per-decision phase latency histograms, observed only while a
	// recorder is attached (phase timing is not free).
	phaseScan  *obs.Histogram // placement.phase_scan_seconds
	phaseCheck *obs.Histogram // placement.phase_check_seconds
	phaseBind  *obs.Histogram // placement.phase_bind_seconds
}

// phaseBuckets spans 10ns..~1.3s exponentially — per-decision phases
// sit far below the DefSecondsBuckets floor of 1µs.
func phaseBuckets() []float64 { return obs.ExpBuckets(1e-8, 2, 28) }

func newPlaceMetrics(o *obs.Observer) placeMetrics {
	return placeMetrics{
		placeCalls:      o.Counter("placement.place_calls"),
		pmsScanned:      o.Counter("placement.pms_scanned"),
		pmsClosed:       o.Counter("placement.pms_closed"),
		pmsReopened:     o.Counter("placement.pms_reopened"),
		profilesScored:  o.Counter("placement.profiles_enumerated"),
		tiesBroken:      o.Counter("placement.ties_broken"),
		twoChoiceDraws:  o.Counter("placement.two_choice_samples"),
		pmsOpened:       o.Counter("placement.pms_opened"),
		noCapacity:      o.Counter("placement.no_capacity"),
		evictionsScored: o.Counter("placement.evictions_scored"),
		victimsSelected: o.Counter("placement.victims_selected"),
		memoHits:        o.Counter("placement.memo_hits"),
		memoMisses:      o.Counter("placement.memo_misses"),
		phaseScan:       o.Histogram("placement.phase_scan_seconds", phaseBuckets()),
		phaseCheck:      o.Histogram("placement.phase_check_seconds", phaseBuckets()),
		phaseBind:       o.Histogram("placement.phase_bind_seconds", phaseBuckets()),
	}
}

var _ Placer = (*PageRankVM)(nil)

// scoreEpsilon is the relative tolerance within which two placement
// scores count as tied.
const scoreEpsilon = 1e-12

// PageRankOption configures the PageRankVM placer.
type PageRankOption interface{ apply(*PageRankVM) }

type twoChoiceOption struct{}

func (twoChoiceOption) apply(p *PageRankVM) { p.twoChoice = true }

// WithTwoChoice enables 2-choice candidate sampling.
func WithTwoChoice() PageRankOption { return twoChoiceOption{} }

type seedOption struct{ seed int64 }

func (o seedOption) apply(p *PageRankVM) { p.rng = rand.New(rand.NewSource(o.seed)) }

// WithSeed sets the seed of the tie-breaking (and 2-choice sampling)
// generator; the default seed is 1.
func WithSeed(seed int64) PageRankOption { return seedOption{seed: seed} }

type observerOption struct{ o *obs.Observer }

func (o observerOption) apply(p *PageRankVM) {
	p.obs = o.o
	p.met = newPlaceMetrics(o.o)
}

// WithObserver attaches a telemetry observer recording the placement.*
// decision counters, and — when the observer has an event sink — a
// structured trace event per Place call. A nil observer (the default)
// keeps the instrumentation disabled at ~zero cost.
func WithObserver(o *obs.Observer) PageRankOption { return observerOption{o: o} }

type recorderOption struct{ r *record.Recorder }

func (o recorderOption) apply(p *PageRankVM) { p.rec = o.r }

// WithRecorder attaches a decision recorder: every Place call appends
// one record.Decision — the full candidate set with scores and
// rejection reasons, the tie-break path, and scan/check/bind phase
// timings (also observed into the placement.phase_*_seconds histograms
// when an observer is attached). A nil recorder (the default) keeps
// recording disabled behind a single branch.
func WithRecorder(r *record.Recorder) PageRankOption { return recorderOption{r: r} }

// NewPageRankVM builds the placer over a registry holding one ranker
// per PM type in the inventory.
func NewPageRankVM(rankers *ranktable.Registry, opts ...PageRankOption) *PageRankVM {
	p := &PageRankVM{
		rankers: rankers,
		rng:     rand.New(rand.NewSource(1)),
	}
	for _, o := range opts {
		o.apply(p)
	}
	return p
}

// Ranker returns the ranker registered for a PM type — extensions
// (e.g. the network-aware decorator) evaluate candidate profiles with
// the same tables the placer uses.
func (p *PageRankVM) Ranker(pmType string) (ranktable.Ranker, bool) {
	return p.rankers.Get(pmType)
}

// Name implements Placer.
func (p *PageRankVM) Name() string {
	if p.twoChoice {
		return "PageRankVM-2choice"
	}
	return "PageRankVM"
}

// scan is one Place call's working state: the request, the running
// best of the used-list pass, the counts that end up in placement.*
// and the Decision, and — only while a recorder is attached (ph is
// non-nil) — the candidate set, tie path and phase clocks.
type scan struct {
	vm       *VM
	exclude  *PM
	scanned  int
	profiles int

	pm     *PM                 // the winner so far; assign is set once it is bound
	canon  resource.Assignment // the winner's enumerated move, if any
	assign resource.Assignment
	score  float64
	ties   int

	cands []record.Candidate
	tied  []int
	ph    *record.Phases
	start time.Time
}

// Place implements Placer (Algorithm 2).
func (p *PageRankVM) Place(c *Cluster, vm *VM, exclude *PM) (*PM, resource.Assignment, error) {
	p.met.placeCalls.Inc()
	defer p.flushMemoStats()
	// The pass over the used list visits its open subsequence: a closed
	// PM rejects every VM type of its rank table, so it is no candidate,
	// no member of a tied set and no rng draw. Three callers still get
	// the whole list: a recorder (a Decision names every used PM),
	// 2-choice (it samples the used list) and a VM outside some rank
	// table's types (closed says nothing about it).
	recording := p.rec.Active()
	used := c.UsedPMs()
	var open *Cluster // c, when used is its open list
	switch {
	case p.twoChoice:
		if len(used) > 2 {
			used = p.sample(used)
			p.met.twoChoiceDraws.Inc()
		}
	case !recording && p.fastOnAll(vm):
		used, open = c.openFor(p), c
		p.met.pmsReopened.Add(c.reopened)
		c.reopened = 0
	}

	// s.ph gates every recording expense — candidate-set assembly,
	// tie-path tracking, phase clocks — behind one nil check.
	s := scan{vm: vm, exclude: exclude, scanned: len(used), score: -1}
	if recording {
		s.cands, s.tied, s.ph, s.start = p.recCands[:0], p.recTied[:0], new(record.Phases), time.Now()
	}

	// Lines 3-16: the used list is scanned whole and the best score wins.
	// Lines 17-24: failing that, the first unused PM that fits is opened.
	if err := p.scanList(&s, used, open, false); err != nil {
		return nil, nil, err
	}
	p.met.pmsScanned.Add(int64(s.scanned))
	if s.pm != nil {
		if p.win(&s, s.pm, s.canon, s.score, s.ties) {
			return s.pm, s.assign, nil
		}
		return nil, nil, fmt.Errorf("placement: cannot materialize assignment on pm %d", s.pm.ID)
	}
	if err := p.scanList(&s, c.UnusedPMs(), nil, true); err != nil {
		return nil, nil, err
	}
	if s.assign != nil {
		return s.pm, s.assign, nil
	}
	p.met.profilesScored.Add(int64(s.profiles))
	p.met.noCapacity.Inc()
	if s.ph != nil {
		s.ph.ScanNs = int64(time.Since(s.start))
		p.recordPlace(&s, nil, 0, 0, false)
	}
	return nil, nil, ErrNoCapacity
}

// scanList is Algorithm 2's candidate loop, for both lists, recording
// or not: every PM runs through the ordered reject stages — excluded
// and cordoned here, because they are per-call and non-gen state that
// must stay outside the memo; no-fit and no-profile in evaluate — and
// a scored one contends for the best score (used) or is opened (unused).
// open is non-nil when list is that cluster's open list: a PM whose
// memo now holds a reject for every VM type is then closed, and the PMs
// that stay open are compacted to list[:kept] as the loop goes.
func (p *PageRankVM) scanList(s *scan, list []*PM, open *Cluster, unused bool) error {
	kept := 0
	for i, pm := range list {
		st, score, n, canon := stageExcluded, 0.0, 0, resource.Assignment(nil)
		if pm != s.exclude {
			st = stageCordoned
			if !pm.cordon {
				var err error
				if st, score, n, canon, err = p.evaluate(pm, s.vm, s.ph); err != nil {
					if open != nil {
						p.met.pmsClosed.Add(open.closeScanned(kept, i))
					}
					return err
				}
				s.profiles += n
			}
		}
		if open != nil {
			if st != stageScored && pm.rejectsAll(p) {
				pm.closed = true
				continue
			}
			if kept != i {
				list[kept] = pm
			}
			kept++
		}
		if s.ph != nil {
			c := record.Candidate{PM: pm.ID, Status: stageStatus[st], Profiles: n, Unused: unused}
			if !unused {
				c.Score = score
			}
			s.cands = append(s.cands, c)
		}
		switch {
		case st != stageScored:
		case unused:
			if p.win(s, pm, canon, 0, 0) {
				s.pm = pm
				return nil
			}
		case score > s.score*(1+scoreEpsilon):
			s.score, s.pm, s.canon = score, pm, canon
			s.ties = 1
			if s.ph != nil {
				s.tied = append(s.tied[:0], pm.ID)
			}
		case score >= s.score*(1-scoreEpsilon):
			// Tie: reservoir-sample uniformly among tied candidates.
			s.ties++
			if p.rng.Intn(s.ties) == 0 {
				s.pm, s.canon = pm, canon
			}
			if s.ph != nil {
				s.tied = append(s.tied, pm.ID)
			}
		}
	}
	if open != nil {
		p.met.pmsClosed.Add(open.closeScanned(kept, len(list)))
	}
	return nil
}

// win binds the chosen PM — the used list's best (ties >= 1) or one
// opened from the unused list (ties == 0) — materializing the one
// assignment Place returns. false means the move cannot be realized,
// and nothing has been counted or recorded.
func (p *PageRankVM) win(s *scan, pm *PM, canon resource.Assignment, score float64, ties int) bool {
	b := p.bind(pm, s.vm)
	var bindStart time.Time
	if s.ph != nil {
		s.ph.ScanNs = int64(time.Since(s.start))
		bindStart = time.Now()
	}
	if s.assign = p.materialize(b, pm, canon); s.assign == nil {
		return false
	}
	opened := !pm.Active()
	p.met.profilesScored.Add(int64(s.profiles))
	if opened {
		p.met.pmsOpened.Inc()
	} else if ties > 1 {
		p.met.tiesBroken.Add(int64(ties - 1))
	}
	if s.ph != nil {
		s.ph.BindNs = int64(time.Since(bindStart))
		p.recordPlace(s, pm, score, ties, b.fast)
	}
	p.tracePlace(s.vm, pm, score, s.scanned, s.profiles, ties, opened)
	return true
}

// flushMemoStats moves evaluate's hit/miss tallies into the counters.
func (p *PageRankVM) flushMemoStats() {
	p.met.memoHits.Add(p.memoHits)
	p.met.memoMisses.Add(p.memoMisses)
	p.memoHits, p.memoMisses = 0, 0
}

// recordPlace assembles and appends one record.Decision (pm nil: the
// request was rejected), feeds the phase histograms, and stashes the
// candidate scratch for reuse.
func (p *PageRankVM) recordPlace(s *scan, pm *PM, score float64, ties int, fast bool) {
	d := record.Decision{
		VM:         s.vm.ID,
		VMType:     s.vm.Type,
		PM:         -1,
		Score:      score,
		Scanned:    s.scanned,
		Profiles:   s.profiles,
		Ties:       ties,
		Candidates: s.cands,
		Fast:       fast,
		Phases:     s.ph,
	}
	if pm != nil {
		d.PM = pm.ID
		d.PMType = pm.Type
		d.Opened = !pm.Active()
	} else {
		d.Rejected = true
	}
	if ties > 1 {
		d.TiedPMs = s.tied
	}
	p.rec.RecordDecision(d)
	p.met.phaseScan.Observe(float64(s.ph.ScanNs) / 1e9)
	p.met.phaseCheck.Observe(float64(s.ph.CheckNs) / 1e9)
	p.met.phaseBind.Observe(float64(s.ph.BindNs) / 1e9)
	// RecordDecision copied (collector) or serialized (JSONL) the
	// slices, so the scratch can be handed back for the next decision.
	p.recCands = s.cands[:0]
	p.recTied = s.tied[:0]
}

// tracePlace emits one structured decision event; field assembly is
// skipped entirely unless the observer has a sink attached.
func (p *PageRankVM) tracePlace(vm *VM, pm *PM, score float64, scanned, profiles, ties int, opened bool) {
	if !p.obs.TraceActive() {
		return
	}
	p.obs.Emit(obs.Event{Name: "placement.place", Fields: []obs.Field{
		obs.F("vm", vm.ID),
		obs.F("vm_type", vm.Type),
		obs.F("pm", pm.ID),
		obs.F("pm_type", pm.Type),
		obs.F("score", score),
		obs.F("pms_scanned", scanned),
		obs.F("profiles", profiles),
		obs.F("ties", ties),
		obs.F("opened_fresh_pm", opened),
	}})
}

// bind returns the placer's binding for pm's type, resolved for vm. The
// PM remembers the binding that last filled its caches (evaluate reads
// that hint itself); the by-name lookup runs for PMs the placer has
// not evaluated since another placer did.
func (p *PageRankVM) bind(pm *PM, vm *VM) *binding {
	b := pm.bind
	if b == nil || b.owner != p {
		b = nil
		for _, have := range p.binds {
			if have.pmType == pm.Type {
				b = have
				break
			}
		}
	}
	if b == nil || b.vm != vm {
		b = p.resolve(pm.Type, b, vm)
	}
	return b
}

// fastOnAll resolves every binding for vm and reports whether the open
// list can stand in for the used list: on each PM type met so far, vm
// is one of the rank table's VM types — the types closures are about —
// or has no demand at all. (A PM of a type not met yet cannot have been
// closed.)
func (p *PageRankVM) fastOnAll(vm *VM) bool {
	for _, b := range p.binds {
		if b.vm != vm {
			b = p.resolve(b.pmType, b, vm)
		}
		if !b.fast && b.hasDemand {
			return false
		}
	}
	return true
}

// resolve re-resolves pmType's binding b (nil: none yet) for vm. It
// never fails: a PM type without a ranker resolves to a nil ranker,
// which evaluate reports only if a fitting PM of that type is actually
// reached. A fast ranker replaced in the registry gets a fresh binding,
// which orphans every per-PM cache the old one filled and (epoch) every
// closure resting on them.
func (p *PageRankVM) resolve(pmType string, b *binding, vm *VM) *binding {
	ranker, _ := p.rankers.Get(pmType)
	fr, _ := ranker.(ranktable.FastRanker)
	if fr != nil && !fr.Fast() {
		fr = nil
	}
	if b == nil || b.fr != fr {
		fresh := &binding{owner: p, pmType: pmType, fr: fr}
		if b == nil {
			p.binds = append(p.binds, fresh)
		} else {
			b.owner = nil
			p.binds[slices.Index(p.binds, b)] = fresh
			p.epoch++
		}
		b = fresh
	}
	b.ranker, b.vm, b.ref, b.fast = ranker, vm, ranktable.TypeRef{}, false
	b.demand, b.hasDemand = vm.DemandOn(pmType)
	if b.hasDemand && fr != nil {
		b.ref, b.fast = fr.ResolveType(b.demand)
	}
	return b
}

func errNoRanker(pmType string) error {
	return fmt.Errorf("placement: no ranker registered for PM type %q", pmType)
}

// evaluate is the one candidate evaluation of Algorithm 2 (lines 5-7)
// behind Place, its 2-choice variant and ScoreOn: does vm fit pm, and
// what does the best resulting profile score, out of how many. That is
// a pure function of (rank table, PM type, used profile, VM type), so
// fast-path answers come from the PM's gen-stamped memo and are
// recomputed — resource.Fits, then pmNodeIDs + BestMove — only after
// the PM mutated (DESIGN.md §16). Where the ranker has no precomputed
// move — see enumerate — the candidate is enumerated and never touches
// the memo; only then is an assignment returned (fast-path winners are
// materialized later). ph, when non-nil, accrues the feasibility-check
// time.
//
//prvm:hotpath
func (p *PageRankVM) evaluate(pm *PM, vm *VM, ph *record.Phases) (stage, float64, int, resource.Assignment, error) {
	b := pm.bind
	if b == nil || b.owner != p || b.vm != vm {
		b = p.bind(pm, vm)
	}
	var e *memoEntry
	if b.fast {
		if pm.bind != b || pm.rankGen != pm.gen {
			pm.resetRank(b)
		}
		if e = &pm.memo[b.ref.Index()]; e.stage != stageUnknown {
			p.memoHits++
			return e.stage, e.score, int(e.count), nil, nil
		}
		p.memoMisses++
	}
	var t0 time.Time
	if ph != nil {
		t0 = time.Now()
	}
	fits := b.hasDemand && resource.Fits(pm.Shape, pm.used, b.demand)
	if ph != nil {
		ph.CheckNs += int64(time.Since(t0))
	}
	if !fits {
		if e != nil {
			e.stage = stageNoFit
			pm.rejects++
		}
		return stageNoFit, 0, 0, nil, nil
	}
	if b.ranker == nil {
		return stageUnknown, 0, 0, nil, errNoRanker(pm.Type)
	}
	if e != nil {
		if ids, ok := pmNodeIDs(pm, b); ok {
			score, n, ok := b.fr.BestMove(ids, b.ref)
			*e = memoEntry{score: score, count: int32(n), stage: stageNoProfile}
			if ok {
				e.stage = stageScored
			} else {
				pm.rejects++
			}
			return e.stage, score, n, nil, nil
		}
	}
	score, assign, n := p.enumerate(b, pm)
	if assign == nil {
		return stageNoProfile, 0, n, nil, nil
	}
	return stageScored, score, n, assign, nil
}

// enumerate is the fallback evaluate selects when the ranker offers no
// precomputed move for this (PM type, VM type): a ranker that is not a
// FastRanker, a lattice too large for typed successor lists, a VM type
// outside the ranker's build set, a demand naming one group twice on a
// Factored, or a profile outside the table. It scores
// resource.Placements from the PM's canonical profile — the sequence
// the lattice's typed successor lists were wired from, so a score tie
// breaks the same way on either path. The returned assignment (nil
// when no resulting profile is in the table) is in canonical
// coordinates; materialize aligns it.
func (p *PageRankVM) enumerate(b *binding, pm *PM) (float64, resource.Assignment, int) {
	bestScore, bestAssign := -1.0, resource.Assignment(nil)
	placements := resource.Placements(pm.Shape, pm.Shape.Canon(pm.used), b.demand)
	for _, pl := range placements {
		if score, ok := b.ranker.Score(pl.Result); ok && score > bestScore {
			bestScore, bestAssign = score, pl.Assign
		}
	}
	return bestScore, bestAssign, len(placements)
}

// materialize produces the winner's assignment in the PM's actual
// dimension order: canon is the enumerated move, or nil for a fast-path
// winner, whose move is read from the table — either way memory this
// call owns, aligned in place. nil means the move cannot be realized
// (a scored evaluate rules that out; the enumeration fallback is
// defensive).
func (p *PageRankVM) materialize(b *binding, pm *PM, canon resource.Assignment) resource.Assignment {
	if canon == nil && b.fast {
		if ids, ok := pmNodeIDs(pm, b); ok {
			canon, _ = b.fr.Materialize(ids, b.ref)
		}
	}
	if canon == nil {
		if _, canon, _ = p.enumerate(b, pm); canon == nil {
			return nil
		}
	}
	return alignAssign(pm.Shape, pm.used, canon)
}

// alignAssign translates an assignment expressed in canonical
// coordinates (positions within each group's sorted profile) to the
// PM's actual dimension order, in place: canonical position k of a
// group maps to the actual dimension holding the k-th smallest used
// value, ties by dimension index — the same stable order the canonical
// sort applies.
// The aligned assignment is valid against used and yields a profile
// whose canonical form is exactly the lattice successor the move was
// scored on.
func alignAssign(shape *resource.Shape, used resource.Vec, out resource.Assignment) resource.Assignment {
	var perm [16]int
	for gi := 0; gi < shape.NumGroups(); gi++ {
		lo, hi := shape.GroupRange(gi)
		sorted := true
		for d := lo + 1; d < hi; d++ {
			if used[d] < used[d-1] {
				sorted = false
				break
			}
		}
		if sorted {
			continue
		}
		// Stable insertion sort of the group's dimension indices by
		// used value: p[k] = in-group index of the k-th smallest.
		n := hi - lo
		pp := perm[:0]
		if n > len(perm) {
			pp = make([]int, 0, n)
		}
		for d := 0; d < n; d++ {
			pp = append(pp, d)
		}
		for i := 1; i < n; i++ {
			for j := i; j > 0 && used[lo+pp[j]] < used[lo+pp[j-1]]; j-- {
				pp[j], pp[j-1] = pp[j-1], pp[j]
			}
		}
		for i := range out {
			if out[i].Dim >= lo && out[i].Dim < hi {
				out[i].Dim = lo + pp[out[i].Dim-lo]
			}
		}
	}
	return out
}

// ScoreOn returns the best accommodation score of vm on pm — evaluate
// plus a binding lookup, so re-scoring a PM that Place just scanned (as
// serve and the descheduler do) is a memo hit. On the fast path it
// runs in ~25ns with zero allocations, hit or miss — the alloc_gate
// test and the hotalloc analyzer both hold it there.
//
//prvm:hotpath
func (p *PageRankVM) ScoreOn(pm *PM, vm *VM) (float64, bool) {
	st, score, _, _, err := p.evaluate(pm, vm, nil)
	return score, err == nil && st == stageScored
}

// sample draws two distinct random used PMs (the 2-choice method).
func (p *PageRankVM) sample(used []*PM) []*PM {
	i := p.rng.Intn(len(used))
	j := p.rng.Intn(len(used) - 1)
	if j >= i {
		j++
	}
	return []*PM{used[i], used[j]}
}

// ScoreVictim returns the rank of pm's residual profile after removing
// the hosted VM — the paper's overload handling picks the VM whose
// removal yields the highest residual score. ok is false when the PM
// type has no ranker or the profile is outside the table.
func (p *PageRankVM) ScoreVictim(pm *PM, h Hosted) (float64, bool) {
	p.met.evictionsScored.Inc()
	ranker, ok := p.rankers.Get(pm.Type)
	if !ok {
		return 0, false
	}
	residual := pm.Used().Sub(h.Assign.Vec(pm.Shape))
	return ranker.Score(residual)
}
