// Package ranktable turns the PageRank scores of Algorithm 1 into the
// Profile→PageRank score table that Algorithm 2 consults during VM
// placement.
//
// Two rankers are provided:
//
//   - Joint runs Algorithm 1 on the full (canonical) profile lattice of
//     a PM shape. It is exact but only feasible for moderate shapes.
//   - Factored runs Algorithm 1 once per resource group on the group's
//     own sub-lattice with the VM types projected onto the group, and
//     scores a profile as the product of its group scores. This scales
//     to large PM types (the paper's Table II) at the cost of ignoring
//     cross-group demand coupling; the ablation benchmark
//     BenchmarkAblationJointVsFactored quantifies the difference.
package ranktable

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"pagerankvm/internal/lattice"
	"pagerankvm/internal/obs"
	"pagerankvm/internal/obs/record"
	"pagerankvm/internal/opt"
	"pagerankvm/internal/pagerank"
	"pagerankvm/internal/resource"
)

// Ranker scores PM usage profiles. Implementations are safe for
// concurrent readers after construction.
type Ranker interface {
	// Shape returns the PM shape the ranker was built for.
	Shape() *resource.Shape
	// Score returns the rank of a (not necessarily canonical) profile.
	// ok is false when the profile is outside the lattice.
	Score(p resource.Vec) (score float64, ok bool)
}

// BuildStats summarizes a table build.
type BuildStats struct {
	Nodes      int
	Edges      int
	Iterations int
	Converged  bool
}

// Table is a concrete Profile→score table over one lattice (either the
// joint lattice or one group's sub-lattice).
//
// Scores live in a dense []float64 indexed by lattice node id: the one
// representation every lookup reads (see fast.go) and Save writes. A
// table read back by LoadTable carries the same lattice and move table
// as the one that was saved.
type Table struct {
	shape *resource.Shape
	ids   []float64      // score by node id
	space *lattice.Space // the lattice the ids index; its typed lists are released
	stats BuildStats

	// The winner-only move table (buildBest): best holds the argmax per
	// (node id, type id), and the winning edge's dimension indices sit
	// in moveDims at node*dimOff[nt] + dimOff[type] — one byte per
	// demanded unit, the amounts being the VM type's own. nil when the
	// lattice declined typed lists.
	best     []move
	moveDims []uint8
	dimOff   []int32 // nt+1: running sum of the types' unit counts

	// hits/misses count Score lookups when the table was built with
	// Options.Obs; nil (free) otherwise.
	hits, misses *obs.Counter
}

// move is the precomputed answer to "what is the best accommodation of
// VM type t from profile node i": the number of candidate profiles
// (zero when the type cannot be placed) and the winning score. One move
// per (node, type) makes Algorithm 2's per-candidate work a single
// array read.
type move struct {
	count int32
	score float64
}

var _ Ranker = (*Table)(nil)

// Mode selects the rank semantics applied to the profile graph. The
// paper's Algorithm 1 is internally inconsistent — the literal Equ.
// (12) (votes flow from a profile to the profiles reachable by adding
// a VM) produces orderings that contradict the paper's own worked
// examples (Figure 2, Section III-B); ranking on the reversed graph
// matches the examples but degenerates to worst-fit placement. The
// closing sentence of Section V-B states what the rank is supposed to
// mean: "the probability that this profile can reach the best profile
// or high resource utilization". ModeAbsorption implements exactly
// that — the damped absorption value of a random walk over the
// profile graph (see pagerank.AbsorptionValues) — reproduces every
// worked example in the paper, and consolidates. It is the default;
// the PageRank modes remain for the interpretation ablation
// (BenchmarkAblationRankMode). See DESIGN.md for the full discussion.
type Mode int

const (
	// ModeAbsorption ranks a profile by the damped expected terminal
	// utilization of a random walk that repeatedly accommodates a
	// feasible VM (default; matches the paper's examples and claims).
	ModeAbsorption Mode = iota
	// ModeReversePR runs PageRank with votes flowing from a profile
	// to the profiles that can develop into it.
	ModeReversePR
	// ModeForwardPR is the literal reading of Equ. (12).
	ModeForwardPR
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeForwardPR:
		return "forward-pr"
	case ModeReversePR:
		return "reverse-pr"
	default:
		return "absorption"
	}
}

// DefaultRewardExponent sharpens the terminal-utilization reward of
// ModeAbsorption (see pagerank.AbsorptionValues).
const DefaultRewardExponent = 8

// Options configures table construction.
type Options struct {
	// PageRank configures the Algorithm 1 iteration (the Damping
	// field is shared by ModeAbsorption's walk).
	PageRank pagerank.Options
	// Mode selects the rank semantics; the zero value is
	// ModeAbsorption.
	Mode Mode
	// RewardExponent is ModeAbsorption's terminal reward sharpening;
	// nil selects DefaultRewardExponent (set with opt.F).
	RewardExponent *float64
	// DisableBPRU skips the line-19 discount in the PageRank modes
	// (for the BPRU ablation); ModeAbsorption ignores it, since the
	// dead-end discount is inherent to the absorption value.
	DisableBPRU bool
	// Obs, when non-nil, records build cost (ranktable.* metrics),
	// score-lookup hit/miss counts, and the Algorithm 1 convergence
	// stats (pagerank.* metrics).
	Obs *obs.Observer
	// Recorder, when non-nil, appends a "ranktable.build" span per
	// table build to the decision recording (one per group table for
	// NewFactored, labelled with the group name).
	Recorder *record.Recorder
	// WireWorkers caps the goroutines wiring lattice successor edges;
	// zero selects GOMAXPROCS (see lattice.Options.Workers). Output is
	// identical for every worker count.
	WireWorkers int
	// Cache, when non-nil, deduplicates builds: NewJoint and
	// NewFactored consult it by canonical shape, VM-type set and
	// options fingerprint, and build only on a miss (singleflight; see
	// Cache). Heterogeneous-fleet registries should share one Cache so
	// each distinct table — and each distinct per-group sub-table —
	// builds exactly once.
	Cache *Cache
}

// NewJoint builds the exact Profile→score table for shape under the
// given VM-type set (Algorithm 1 on the full canonical lattice).
// With Options.Cache set, the build is served from or recorded into
// the cache.
func NewJoint(shape *resource.Shape, vmTypes []resource.VMType, opts Options) (*Table, error) {
	if opts.Cache != nil {
		return opts.Cache.Joint(shape, vmTypes, opts)
	}
	return buildJoint(shape, vmTypes, opts)
}

func buildJoint(shape *resource.Shape, vmTypes []resource.VMType, opts Options) (*Table, error) {
	start := time.Now()
	space, err := lattice.NewSpace(shape, vmTypes, lattice.Options{Workers: opts.WireWorkers})
	if err != nil {
		return nil, fmt.Errorf("ranktable: joint lattice: %w", err)
	}
	t, err := fromSpace(space, opts)
	if err != nil {
		return nil, err
	}
	if o := opts.Obs; o != nil {
		o.Counter("ranktable.builds").Inc()
		o.Counter("ranktable.nodes").Add(int64(t.stats.Nodes))
		o.Counter("ranktable.edges").Add(int64(t.stats.Edges))
		if t.stats.Converged {
			o.Counter("ranktable.converged_builds").Inc()
		}
		o.Histogram("ranktable.build_seconds", nil).Observe(time.Since(start).Seconds())
	}
	opts.Recorder.RecordSpan("ranktable.build", time.Since(start).Nanoseconds(),
		map[string]string{"mode": opts.Mode.String()})
	return t, nil
}

func fromSpace(space *lattice.Space, opts Options) (*Table, error) {
	g := pagerank.CSR{Offsets: space.SuccOffsets(), Edges: space.SuccArena()}
	utils := space.Utils()

	var (
		scores []float64
		res    pagerank.Result
		err    error
	)
	switch opts.Mode {
	case ModeAbsorption:
		damping := opt.Or(opts.PageRank.Damping, pagerank.DefaultDamping)
		rewardExp := opt.Or(opts.RewardExponent, DefaultRewardExponent)
		scores, err = pagerank.AbsorptionValuesCSR(g, utils, damping, rewardExp)
		res = pagerank.Result{Converged: true}
	case ModeForwardPR, ModeReversePR:
		votes := g
		if opts.Mode == ModeReversePR {
			votes = g.Reverse()
		}
		propts := opts.PageRank
		if propts.Obs == nil {
			propts.Obs = opts.Obs
		}
		if opts.DisableBPRU {
			res, err = pagerank.RanksCSR(votes, propts)
			scores = res.Ranks
		} else {
			scores, res, err = pagerank.ScoresCSR(votes, g, utils, propts)
		}
	default:
		err = fmt.Errorf("unknown mode %d", opts.Mode)
	}
	if err != nil {
		return nil, fmt.Errorf("ranktable: %w", err)
	}

	t := &Table{
		shape:  space.Shape(),
		ids:    scores,
		space:  space,
		hits:   opts.Obs.Counter("ranktable.score_hits"),
		misses: opts.Obs.Counter("ranktable.score_misses"),
		stats: BuildStats{
			Nodes:      space.Len(),
			Edges:      space.Edges(),
			Iterations: res.Iterations,
			Converged:  res.Converged,
		},
	}
	t.buildBest()
	return t, nil
}

// buildBest reduces the lattice's typed successor lists to the move
// table — for every (node, active VM type) pair the argmax of the
// id-indexed scores and the dimensions that edge assigned — and then
// releases the lists: Algorithm 2 only ever materializes the winner.
// Ties keep the first maximum in enumeration order — the same winner a
// linear scan over resource.Placements picks. Each (node, demand class)
// list is reduced once, inside the wiring chunk that holds it and in
// parallel with the other chunks, and its move written to every type
// of the class. It runs inside the build (and inside LoadTable),
// before the table can be shared.
func (t *Table) buildBest() {
	sp := t.space
	if !sp.HasTyped() {
		return
	}
	n, nt := sp.Len(), sp.NumTypes()
	t.dimOff = make([]int32, nt+1)
	classTypes := make([][]int, nt) // demand class -> its types
	for ty := 0; ty < nt; ty++ {
		t.dimOff[ty+1] = t.dimOff[ty] + int32(sp.TypeAt(ty).NumUnits())
		classTypes[sp.TypeClass(ty)] = append(classTypes[sp.TypeClass(ty)], ty)
	}
	row := int(t.dimOff[nt])
	t.best = make([]move, n*nt)
	t.moveDims = make([]uint8, n*row)
	sp.VisitTyped(func(i, k int, succ []int32, dims []uint8) {
		if len(succ) == 0 {
			return
		}
		arg, best := 0, t.ids[succ[0]]
		for e, j := range succ[1:] {
			if s := t.ids[j]; s > best {
				arg, best = e+1, s
			}
		}
		m := move{count: int32(len(succ)), score: best}
		for _, ty := range classTypes[k] {
			t.best[i*nt+ty] = m
			lo, hi := i*row+int(t.dimOff[ty]), i*row+int(t.dimOff[ty+1])
			win := dims[arg*(hi-lo):]
			for u := range t.moveDims[lo:hi] { // one or two bytes: a memmove call costs more
				t.moveDims[lo+u] = win[u]
			}
		}
	})
	sp.ReleaseTyped()
}

// Shape returns the PM shape of the table.
func (t *Table) Shape() *resource.Shape { return t.shape }

// Stats returns build diagnostics.
func (t *Table) Stats() BuildStats { return t.stats }

// Len returns the number of profiles in the table.
func (t *Table) Len() int { return t.space.Len() }

// Score returns the rank of profile p.
func (t *Table) Score(p resource.Vec) (float64, bool) {
	id := t.space.Index(p) // handles length mismatch and out-of-lattice
	if id < 0 {
		t.misses.Inc()
		return 0, false
	}
	t.hits.Inc()
	return t.ids[id], true
}

// Entry pairs a canonical profile with its score, for inspection and
// reporting (Figure 1 reproduction).
type Entry struct {
	Profile resource.Vec
	Score   float64
}

// Top returns the n highest-scoring profiles, ties broken by profile
// order, descending by score.
func (t *Table) Top(n int) []Entry {
	entries := make([]Entry, 0, t.space.Len())
	for i := 0; i < t.space.Len(); i++ {
		entries = append(entries, Entry{Profile: t.space.Node(i).Clone(), Score: t.ids[i]})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Score > entries[j].Score {
			return true
		}
		if entries[i].Score < entries[j].Score {
			return false
		}
		return entries[i].Profile.String() < entries[j].Profile.String()
	})
	if n > 0 && n < len(entries) {
		entries = entries[:n]
	}
	return entries
}

// Factored scores profiles as the product of independent per-group
// tables.
type Factored struct {
	shape  *resource.Shape
	groups []*Table // indexed by group, nil when no VM type touches it

	// Fast-path type bindings, built once from the VM-type set the
	// ranker was constructed with (see fast.go). For registered type t:
	// gtid[t][gi] is the group table's type id (or -1 when the type
	// does not touch group gi) and dem[t] lists the shape group index
	// of each demand, in demand order, for assignment materialization.
	types   []resource.VMType
	typeIdx map[string]int
	gtid    [][]int32
	dem     [][]int32
	feas    []bool // false: missing demand group or duplicate-group demands — fast path declines
	fast    bool
}

var _ Ranker = (*Factored)(nil)

// NewFactored builds one table per resource group of shape, with the
// VM-type set projected onto each group. Groups build in parallel —
// each goroutine writes only its own slot, so the result (and the
// first error, by group order) is deterministic. With Options.Cache
// set, the whole ranker and each per-group table are served from or
// recorded into the cache — two PM types sharing a group geometry
// share the group's build.
func NewFactored(shape *resource.Shape, vmTypes []resource.VMType, opts Options) (*Factored, error) {
	if opts.Cache != nil {
		return opts.Cache.Factored(shape, vmTypes, opts)
	}
	return buildFactored(shape, vmTypes, opts)
}

func buildFactored(shape *resource.Shape, vmTypes []resource.VMType, opts Options) (*Factored, error) {
	ng := shape.NumGroups()
	f := &Factored{
		shape:  shape,
		groups: make([]*Table, ng),
	}
	errs := make([]error, ng)
	var wg sync.WaitGroup
	for gi := 0; gi < ng; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			start := time.Now()
			sub := shape.SubShape(gi)
			var projected []resource.VMType
			for _, vt := range vmTypes {
				if p, ok := vt.Project(shape.Group(gi).Name); ok {
					projected = append(projected, p)
				}
			}
			// Group builds span under the group's name instead of the
			// generic NewJoint span (the recorder is concurrency-safe,
			// so parallel group builds interleave cleanly).
			gopts := opts
			gopts.Recorder = nil
			table, err := NewJoint(sub, projected, gopts)
			if err != nil {
				errs[gi] = fmt.Errorf("ranktable: group %q: %w", shape.Group(gi).Name, err)
				return
			}
			f.groups[gi] = table
			opts.Recorder.RecordSpan("ranktable.build", time.Since(start).Nanoseconds(),
				map[string]string{"mode": opts.Mode.String(), "group": shape.Group(gi).Name})
		}(gi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	f.bindTypes(vmTypes)
	return f, nil
}

// bindTypes resolves every VM type of the build set against the group
// tables, precomputing the per-group type ids and demand layout the
// fast path indexes by.
func (f *Factored) bindTypes(vmTypes []resource.VMType) {
	f.fast = true
	for _, tb := range f.groups {
		if !tb.Fast() {
			f.fast = false
			return
		}
	}
	f.typeIdx = make(map[string]int, len(vmTypes))
	for _, vt := range vmTypes {
		if _, dup := f.typeIdx[vt.Name]; dup {
			continue
		}
		ti := len(f.types)
		f.typeIdx[vt.Name] = ti
		f.types = append(f.types, vt)

		gtid := make([]int32, f.shape.NumGroups())
		for gi := range gtid {
			gtid[gi] = -1
		}
		dem := make([]int32, 0, len(vt.Demands))
		feasible := true
		seenGroup := make(map[string]bool, len(vt.Demands))
		for _, d := range vt.Demands {
			gi := f.shape.GroupIndex(d.Group)
			if gi < 0 || seenGroup[d.Group] {
				// A missing group means the type never fits; a
				// duplicate group breaks the per-group independence
				// the factored decomposition relies on. Both fall
				// back to the enumeration path.
				feasible = false
				break
			}
			seenGroup[d.Group] = true
			if len(d.Units) > 0 {
				tid := f.groups[gi].space.TypeIndex(vt.Name)
				if tid < 0 {
					feasible = false
					break
				}
				gtid[gi] = int32(tid)
				dem = append(dem, int32(gi))
			}
		}
		f.gtid = append(f.gtid, gtid)
		f.dem = append(f.dem, dem)
		f.feas = append(f.feas, feasible)
	}
}

// Shape returns the PM shape of the ranker.
func (f *Factored) Shape() *resource.Shape { return f.shape }

// GroupTable returns the table for group gi.
func (f *Factored) GroupTable(gi int) *Table { return f.groups[gi] }

// Score returns the product of the per-group scores of p.
func (f *Factored) Score(p resource.Vec) (float64, bool) {
	if len(p) != f.shape.NumDims() {
		return 0, false
	}
	score := 1.0
	for gi, table := range f.groups {
		sub := f.shape.Project(p, gi)
		s, ok := table.Score(sub)
		if !ok {
			return 0, false
		}
		score *= s
	}
	return score, true
}
