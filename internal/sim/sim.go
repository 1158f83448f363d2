// Package sim is the trace-driven datacenter simulator standing in for
// CloudSim in the paper's evaluation (see DESIGN.md §5). It implements
// exactly the semantics the experiments rely on:
//
//   - VMs are allocated by their requested integer-unit demands
//     (Algorithm 2 and the baselines operate on requested profiles);
//   - every Interval (300 s in the paper) the simulator computes each
//     PM's actual utilization by scaling the CPU assignments with the
//     per-VM workload trace;
//   - a PM whose utilization crosses the overload threshold (90%) in
//     any CPU dimension sheds VMs — the eviction policy picks victims,
//     the placement algorithm picks destinations — and each move
//     counts as one migration;
//   - an active PM-interval in which some CPU dimension sits at 100%
//     counts as an SLO violation (the paper's Section VI-A metric);
//   - active PMs accumulate energy under the Table III power model of
//     their type.
package sim

import (
	"errors"
	"fmt"
	"math/bits"
	"strconv"
	"time"

	"pagerankvm/internal/deschedule"
	"pagerankvm/internal/energy"
	"pagerankvm/internal/obs"
	"pagerankvm/internal/obs/record"
	"pagerankvm/internal/opt"
	"pagerankvm/internal/placement"
	"pagerankvm/internal/resource"
	"pagerankvm/internal/trace"
)

// Defaults matching the paper's simulation setup.
const (
	DefaultInterval          = 300 * time.Second
	DefaultHorizon           = 24 * time.Hour
	DefaultOverloadThreshold = 0.90
	// DefaultCPUGroup names the resource group the traces drive.
	DefaultCPUGroup = "cpu"

	// sloEpsilon is the tolerance under full utilization that still
	// counts as "experiencing 100% CPU utilization".
	sloEpsilon = 1e-9

	// maxEvictionsPerPM bounds how many VMs one overload event may
	// shed in a single interval, a safety valve against pathological
	// thrash.
	maxEvictionsPerPM = 16
)

// Config parameterizes a simulation run.
type Config struct {
	// Interval is the monitoring period (paper: 300 s).
	Interval time.Duration
	// Horizon is the simulated duration (paper: 24 h).
	Horizon time.Duration
	// OverloadThreshold flags a PM as overloaded when any CPU
	// dimension's actual utilization exceeds it; nil selects
	// DefaultOverloadThreshold (paper: 0.9). Set with opt.F.
	OverloadThreshold *float64
	// UnderloadThreshold, when positive, enables dynamic consolidation
	// (Beloglazov-style, the usual CloudSim companion policy): an
	// active PM whose aggregate CPU utilization falls below the
	// threshold is evacuated — all of its VMs are migrated to other
	// used PMs — so it can power off. Zero disables consolidation,
	// matching the paper's setup.
	UnderloadThreshold float64
	// Observer, when non-nil, receives a snapshot after every
	// monitoring interval — time-series output for plotting.
	Observer func(StepStats)
	// Obs, when non-nil, records runtime telemetry (sim.* counters
	// and the per-decision placement latency histogram). Independent
	// of Observer: that hook is per-step time-series data, this one is
	// aggregate instrumentation.
	Obs *obs.Observer
	// Recorder, when non-nil, appends "sim.tick" spans (one per
	// monitoring interval, labelled with the step index) and one
	// closing "sim.run" span to the decision recording. Pair it with
	// placement.WithRecorder on the placer for the decision stream
	// itself.
	Recorder *record.Recorder
	// RebalanceEvery, when positive, runs one descheduler round every
	// that many monitoring intervals (after the interval's monitoring
	// actions, so relief and rebalancing never race within a step).
	// Requires the placer to be a *placement.PageRankVM — the engine
	// re-asks Algorithm 2 for its moves. Zero disables rebalancing.
	RebalanceEvery int
	// Rebalance parameterizes the descheduler when RebalanceEvery is
	// set. Its Obs and Recorder default to this Config's when unset.
	Rebalance deschedule.Config
}

// StepStats is the per-interval snapshot passed to Config.Observer.
type StepStats struct {
	// Step is the interval index.
	Step int
	// ActivePMs is the number of PMs hosting VMs at the end of the
	// interval.
	ActivePMs int
	// PlacedVMs is the number of VMs currently placed.
	PlacedVMs int
	// Migrations and OverloadedPMs are this interval's counts.
	Migrations    int
	OverloadedPMs int
	// ViolatedPMs is the number of PMs that experienced 100% CPU in
	// some dimension during the interval.
	ViolatedPMs int
	// RebalanceMoves is the number of descheduler migrations this
	// interval (0 on intervals without a rebalance round).
	RebalanceMoves int
	// MeanCPUUtil is the mean aggregate CPU utilization over the PMs
	// active during the interval (0 when none).
	MeanCPUUtil float64
}

func (c Config) withDefaults() Config {
	if c.Interval == 0 {
		c.Interval = DefaultInterval
	}
	if c.Horizon == 0 {
		c.Horizon = DefaultHorizon
	}
	if c.OverloadThreshold == nil {
		c.OverloadThreshold = opt.F(DefaultOverloadThreshold)
	}
	return c
}

// Steps returns the number of monitoring intervals in the horizon.
func (c Config) Steps() int {
	cfg := c.withDefaults()
	return int(cfg.Horizon / cfg.Interval)
}

// Workload pairs a VM request with its utilization trace and lease
// window. A zero-valued window means the VM is present for the whole
// horizon (the paper's static allocation); workloads with churn set
// Start/End in monitoring-interval steps.
type Workload struct {
	VM    *placement.VM
	Trace trace.Series
	// Start is the arrival step (inclusive); 0 arrives with the
	// initial allocation.
	Start int
	// End is the departure step (exclusive); 0 means "runs forever".
	End int
}

// Schedule indexes workloads by step over a run of steps monitoring
// intervals: arrives[step] holds the VMs arriving at step and
// departs[step] the ids of the VMs leaving, both in workload order. A
// lease that starts at or after steps never arrives, one ending at or
// after steps never departs. A nil VM or a lease that is not a
// non-empty window starting at 0 or later is an error.
func Schedule(workloads []Workload, steps int) (arrives [][]*placement.VM, departs [][]int, err error) {
	arrives, departs = make([][]*placement.VM, steps), make([][]int, steps)
	for _, w := range workloads {
		if w.VM == nil {
			return nil, nil, errors.New("sim: nil VM in workload")
		}
		if w.Start < 0 || (w.End != 0 && w.End <= w.Start) {
			return nil, nil, fmt.Errorf("sim: vm %d has invalid lease [%d,%d)", w.VM.ID, w.Start, w.End)
		}
		if w.Start < steps {
			arrives[w.Start] = append(arrives[w.Start], w.VM)
		}
		if w.End > 0 && w.End < steps {
			departs[w.End] = append(departs[w.End], w.VM.ID)
		}
	}
	return arrives, departs, nil
}

// Classify is the per-interval monitoring rule shared by the simulator
// and the testbed controller. load is one CPU group's actual load, one
// entry per dimension, whose first dimension is lo in the PM's shape;
// capUnits is the group's per-dimension capacity. It returns the
// load's sum, whether some dimension sat at capacity (the paper's SLO
// violation), and over with the shape dimensions whose load exceeds
// threshold × capUnits appended (the overload that triggers
// migration).
func Classify(load []float64, lo int, capUnits, threshold float64, over []int) (total float64, violated bool, _ []int) {
	for i, l := range load {
		total += l
		if l >= capUnits-sloEpsilon {
			violated = true
		}
		if l > threshold*capUnits {
			over = append(over, lo+i)
		}
	}
	return total, violated, over
}

// Result aggregates the metrics the paper reports.
type Result struct {
	// PMsUsed is the high-water mark of simultaneously active PMs
	// (Figures 3 and 4a).
	PMsUsed int
	// FinalPMs is the active PM count at the end of the horizon.
	FinalPMs int
	// Migrations counts VM moves triggered by overload (Figure 6).
	Migrations int
	// FailedMigrations counts evictions with no feasible destination;
	// the VM stays put.
	FailedMigrations int
	// Rejected counts VMs that could not be placed at all.
	Rejected int
	// EnergyKWh is the cumulative energy of active PMs (Figure 5).
	EnergyKWh float64
	// SLOViolationPct is the percentage of active PM-intervals that
	// experienced 100% CPU utilization in some dimension (Figure 7).
	SLOViolationPct float64
	// ActivePMSteps and ViolatedPMSteps are the SLO ratio's parts.
	ActivePMSteps   int
	ViolatedPMSteps int
	// OverloadEvents counts PM-intervals above the overload threshold.
	OverloadEvents int
	// Consolidations counts PMs evacuated by underload consolidation.
	Consolidations int
	// RebalanceRounds, RebalanceMoves and RebalanceFreedPMs summarize
	// descheduler activity (Config.RebalanceEvery). Rebalance moves are
	// counted separately from Migrations: the paper's migration metric
	// measures overload response, not proactive consolidation.
	RebalanceRounds   int
	RebalanceMoves    int
	RebalanceFreedPMs int
}

// Simulation drives one run. Build it with New, then call Run once.
type Simulation struct {
	cfg     Config
	cluster *placement.Cluster
	placer  placement.Placer
	evictor placement.Evictor
	pms     []pmState // one per PM of the inventory
	pmIdx   idIndex   // PM id -> pms position
	// util[step*n+c] is the utilization at step of the VM that col maps
	// to column c: one contiguous row of n columns, one per workload, per
	// monitoring step.
	util    []float64
	n       int
	col     idIndex            // VM id -> util column
	load    []float64          // actualCPU's result, reused
	over    []int              // Classify's overloaded dimensions, reused
	active  []*placement.PM    // tick's snapshot of the used list, reused
	arrives [][]*placement.VM  // step -> arrivals (step 0: the initial allocation)
	departs [][]int            // step -> departing vm ids
	resched *deschedule.Engine // nil when rebalancing is off
	met     simMetrics
}

// pmState is what the monitoring pass keeps per PM. New resolves the
// power model and the CPU group's dimension range [lo, hi) and capacity
// (hi == 0: the shape has no CPU group); actualCPU rebuilds terms, the
// products its sum adds, whenever the PM's hosted set has changed.
type pmState struct {
	model  *energy.Model
	lo, hi int
	cap    float64
	gen    uint64 // 1 + the PM's Gen when terms were built; 0 before
	terms  []term
}

// term is one product of actualCPU's sum: units on CPU dimension lo+dim
// scaled by util column col.
type term struct {
	col, dim int32
	units    float64
}

// state returns pm's entry in s.pms.
func (s *Simulation) state(pm *placement.PM) *pmState { return &s.pms[s.pmIdx.slot(pm.ID).pos-1] }

// idIndex is a read-only int id -> position index: open addressing over
// a power-of-two table at most half full, a Fibonacci hash of the id and
// linear probing. Any int is a key.
type idIndex struct {
	slots []idSlot
	shift uint // 64 - log2(len(slots))
}

// idSlot holds one id and its position plus one: a zero pos is empty.
type idSlot struct {
	id  int
	pos int32
}

func newIDIndex(n int) idIndex {
	lg := uint(bits.Len(uint(n))) + 1
	return idIndex{slots: make([]idSlot, 1<<lg), shift: 64 - lg}
}

// home is id's first probe: the top bits of its Fibonacci hash.
func (x *idIndex) home(id int) int { return int(uint64(id) * 0x9E3779B97F4A7C15 >> x.shift) }

// slot returns id's slot, or the empty slot where id belongs.
//
//prvm:hotpath
func (x *idIndex) slot(id int) *idSlot {
	mask := len(x.slots) - 1
	for i := x.home(id); ; i = (i + 1) & mask {
		if sl := &x.slots[i]; sl.pos == 0 || sl.id == id {
			return sl
		}
	}
}

// insert gives id position pos, or reports false if id is already in.
func (x *idIndex) insert(id, pos int) bool {
	sl := x.slot(id)
	if sl.pos != 0 {
		return false
	}
	*sl = idSlot{id: id, pos: int32(pos) + 1}
	return true
}

// simMetrics pre-resolves the simulator's instruments; all nil (and
// every call a no-op branch) when Config.Obs is unset.
type simMetrics struct {
	ticks            *obs.Counter   // sim.ticks
	placements       *obs.Counter   // sim.placements
	rejected         *obs.Counter   // sim.rejected
	overloads        *obs.Counter   // sim.overload_events
	relieveMoves     *obs.Counter   // sim.relieve_migrations
	consolidations   *obs.Counter   // sim.consolidations
	consolidateMoves *obs.Counter   // sim.consolidate_migrations
	failedMoves      *obs.Counter   // sim.failed_migrations
	sloViolations    *obs.Counter   // sim.slo_violations
	activePMs        *obs.Gauge     // sim.active_pms
	placedVMs        *obs.Gauge     // sim.placed_vms
	placeSeconds     *obs.Histogram // sim.place_seconds
}

func newSimMetrics(o *obs.Observer) simMetrics {
	return simMetrics{
		ticks:            o.Counter("sim.ticks"),
		placements:       o.Counter("sim.placements"),
		rejected:         o.Counter("sim.rejected"),
		overloads:        o.Counter("sim.overload_events"),
		relieveMoves:     o.Counter("sim.relieve_migrations"),
		consolidations:   o.Counter("sim.consolidations"),
		consolidateMoves: o.Counter("sim.consolidate_migrations"),
		failedMoves:      o.Counter("sim.failed_migrations"),
		sloViolations:    o.Counter("sim.slo_violations"),
		activePMs:        o.Gauge("sim.active_pms"),
		placedVMs:        o.Gauge("sim.placed_vms"),
		placeSeconds:     o.Histogram("sim.place_seconds", nil),
	}
}

// place routes every placement decision through one point so the
// latency histogram sees initial allocation, arrivals, relief and
// consolidation alike. Timing is skipped when telemetry is off.
func (s *Simulation) place(vm *placement.VM, exclude *placement.PM) (*placement.PM, resource.Assignment, error) {
	if s.met.placeSeconds == nil {
		return s.placer.Place(s.cluster, vm, exclude)
	}
	start := time.Now()
	pm, assign, err := s.placer.Place(s.cluster, vm, exclude)
	s.met.placeSeconds.Observe(time.Since(start).Seconds())
	if err == nil {
		s.met.placements.Inc()
	}
	return pm, assign, err
}

// migrator hands the timed place to placement.Cluster.Migrate, so
// sim.place_seconds sees migrations like every other decision.
type migrator struct{ s *Simulation }

func (m migrator) Name() string { return m.s.placer.Name() }

func (m migrator) Place(_ *placement.Cluster, vm *placement.VM, exclude *placement.PM) (*placement.PM, resource.Assignment, error) {
	return m.s.place(vm, exclude)
}

// New validates and assembles a simulation.
//
// models maps PM type names to Table III power models; every PM type
// in the cluster needs one. workloads supply both the VM requests and
// their traces.
func New(cfg Config, cluster *placement.Cluster, placer placement.Placer,
	evictor placement.Evictor, models map[string]*energy.Model, workloads []Workload) (*Simulation, error) {
	if cluster == nil || placer == nil || evictor == nil {
		return nil, errors.New("sim: cluster, placer and evictor are required")
	}
	cfg = cfg.withDefaults()
	if cfg.Steps() <= 0 {
		return nil, fmt.Errorf("sim: horizon %v shorter than interval %v", cfg.Horizon, cfg.Interval)
	}
	steps, pms := cfg.Steps(), cluster.PMs()
	arrives, departs, err := Schedule(workloads, steps)
	if err != nil {
		return nil, err
	}
	s := &Simulation{
		cfg:     cfg,
		cluster: cluster,
		placer:  placer,
		evictor: evictor,
		pms:     make([]pmState, len(pms)),
		pmIdx:   newIDIndex(len(pms)),
		col:     newIDIndex(len(workloads)),
		arrives: arrives,
		departs: departs,
		met:     newSimMetrics(cfg.Obs),
	}
	width := 0
	for i, pm := range pms {
		st := &s.pms[i]
		var ok bool
		if st.model, ok = models[pm.Type]; !ok {
			return nil, fmt.Errorf("sim: no power model for PM type %q", pm.Type)
		}
		if !s.pmIdx.insert(pm.ID, i) {
			return nil, fmt.Errorf("sim: duplicate PM id %d", pm.ID)
		}
		if gi := pm.Shape.GroupIndex(DefaultCPUGroup); gi >= 0 {
			st.lo, st.hi = pm.Shape.GroupRange(gi)
			st.cap = float64(pm.Shape.Group(gi).Cap)
			width = max(width, st.hi-st.lo)
		}
	}
	s.load = make([]float64, width)
	if cfg.RebalanceEvery > 0 {
		prvm, ok := placer.(*placement.PageRankVM)
		if !ok {
			return nil, fmt.Errorf("sim: rebalancing requires the PageRankVM placer, got %s", placer.Name())
		}
		rcfg := cfg.Rebalance
		if rcfg.Obs == nil {
			rcfg.Obs = cfg.Obs
		}
		if rcfg.Recorder == nil {
			rcfg.Recorder = cfg.Recorder
		}
		s.resched = deschedule.New(prvm, rcfg)
	}
	for i, w := range workloads {
		if !s.col.insert(w.VM.ID, i) {
			return nil, fmt.Errorf("sim: duplicate VM id %d", w.VM.ID)
		}
	}
	// Fill the matrix block VMs at a time, step by step in a block: the
	// block's trace lines (8 KB) and slice headers (6 KB) stay in L1.
	const block = 128
	n := len(workloads)
	s.n, s.util = n, make([]float64, n*steps)
	for b := 0; b < n; b += block {
		blk := workloads[b:min(b+block, n)]
		for step := 0; step < steps; step++ {
			row := s.util[step*n+b:][:len(blk)]
			for i, w := range blk {
				row[i] = w.Trace.At(step)
			}
		}
	}
	return s, nil
}

// Run performs the initial allocation and then steps the simulation
// through the horizon. It must be called at most once.
func (s *Simulation) Run() (Result, error) {
	var res Result

	// Initial allocation. Placers that define a VM ordering (FFDSum)
	// get to sort the queue first.
	queue := make([]*placement.VM, len(s.arrives[0]))
	copy(queue, s.arrives[0])
	if orderer, ok := s.placer.(interface{ OrderVMs([]*placement.VM) }); ok {
		orderer.OrderVMs(queue)
	}
	for _, vm := range queue {
		pm, assign, err := s.place(vm, nil)
		if errors.Is(err, placement.ErrNoCapacity) {
			res.Rejected++
			s.met.rejected.Inc()
			continue
		}
		if err != nil {
			return res, fmt.Errorf("sim: initial allocation: %w", err)
		}
		if err := s.cluster.Host(pm, vm, assign); err != nil {
			return res, fmt.Errorf("sim: initial allocation: %w", err)
		}
	}

	meter := &energy.Meter{}
	steps := s.cfg.Steps()
	rec := s.cfg.Recorder.Active()
	var runStart time.Time
	if rec {
		runStart = time.Now()
	}
	for step := 0; step < steps; step++ {
		var tickStart time.Time
		if rec {
			tickStart = time.Now()
		}
		if err := s.tick(step, meter, &res); err != nil {
			return res, err
		}
		if rec {
			s.cfg.Recorder.RecordSpan("sim.tick", time.Since(tickStart).Nanoseconds(),
				map[string]string{"step": strconv.Itoa(step)})
		}
	}
	if rec {
		s.cfg.Recorder.RecordSpan("sim.run", time.Since(runStart).Nanoseconds(),
			map[string]string{"steps": strconv.Itoa(steps)})
	}
	res.EnergyKWh = meter.KWh()
	res.PMsUsed = s.cluster.MaxUsed
	res.FinalPMs = s.cluster.NumUsed()
	if res.ActivePMSteps > 0 {
		res.SLOViolationPct = 100 * float64(res.ViolatedPMSteps) / float64(res.ActivePMSteps)
	}
	return res, nil
}

// tick processes one monitoring interval: departures, arrivals, then
// monitoring (energy, SLO, overload relief).
func (s *Simulation) tick(step int, meter *energy.Meter, res *Result) error {
	if step > 0 {
		for _, id := range s.departs[step] {
			// Ignore VMs that were rejected at arrival.
			if _, placed := s.cluster.Locate(id); placed {
				if _, err := s.cluster.Release(id); err != nil {
					return fmt.Errorf("sim: departure of vm %d: %w", id, err)
				}
			}
		}
		for _, vm := range s.arrives[step] {
			pm, assign, err := s.place(vm, nil)
			if errors.Is(err, placement.ErrNoCapacity) {
				res.Rejected++
				s.met.rejected.Inc()
				continue
			}
			if err != nil {
				return fmt.Errorf("sim: arrival of vm %d: %w", vm.ID, err)
			}
			if err := s.cluster.Host(pm, vm, assign); err != nil {
				return fmt.Errorf("sim: arrival of vm %d: %w", vm.ID, err)
			}
		}
	}

	s.met.ticks.Inc()
	var stats StepStats
	stats.Step = step
	migrationsBefore := res.Migrations
	activePMsSeen := 0
	utilSum := 0.0

	// Snapshot the used list: migrations mutate it mid-step.
	s.active = append(s.active[:0], s.cluster.UsedPMs()...)
	for _, pm := range s.active {
		if !pm.Active() {
			continue // emptied by an earlier migration this step
		}
		st := s.state(pm)
		if st.hi == 0 {
			continue
		}
		// Metrics for this PM-interval.
		res.ActivePMSteps++
		total, violated, over := Classify(s.actualCPU(pm, step), st.lo, st.cap, *s.cfg.OverloadThreshold, s.over[:0])
		s.over = over
		if violated {
			res.ViolatedPMSteps++
			stats.ViolatedPMs++
			s.met.sloViolations.Inc()
		}
		cpuUtil := total / (st.cap * float64(st.hi-st.lo))
		meter.Accumulate(st.model, cpuUtil, s.cfg.Interval)
		activePMsSeen++
		utilSum += cpuUtil

		if len(s.over) > 0 {
			res.OverloadEvents++
			stats.OverloadedPMs++
			s.met.overloads.Inc()
			s.relieve(pm, st, step, res)
		} else if s.cfg.UnderloadThreshold > 0 && cpuUtil < s.cfg.UnderloadThreshold {
			s.consolidate(pm, res)
		}
	}

	if s.resched != nil && (step+1)%s.cfg.RebalanceEvery == 0 {
		rst := s.resched.Rebalance(s.cluster)
		res.RebalanceRounds++
		res.RebalanceMoves += rst.Moves
		res.RebalanceFreedPMs += rst.PMsFreed
		stats.RebalanceMoves = rst.Moves
	}

	s.met.activePMs.Set(int64(s.cluster.NumUsed()))
	s.met.placedVMs.Set(int64(s.cluster.NumVMs()))
	if s.cfg.Observer != nil {
		stats.ActivePMs = s.cluster.NumUsed()
		stats.PlacedVMs = s.cluster.NumVMs()
		stats.Migrations = res.Migrations - migrationsBefore
		if activePMsSeen > 0 {
			stats.MeanCPUUtil = utilSum / float64(activePMsSeen)
		}
		s.cfg.Observer(stats)
	}
	return nil
}

// consolidate tries to evacuate an underloaded PM entirely onto other
// used PMs. Each successful move counts as a migration; if some VM has
// no destination the evacuation stops (partially drained PMs simply
// try again next interval).
func (s *Simulation) consolidate(pm *placement.PM, res *Result) {
	for _, id := range pm.VMIDs() {
		// Only consolidate onto already-running PMs; powering a fresh
		// PM on would defeat the purpose.
		_, dest, _ := s.cluster.Migrate(migrator{s}, id, func(_ placement.Hosted, dest *placement.PM, _ resource.Assignment) bool { return dest.Active() })
		if dest == nil {
			return
		}
		res.Migrations++
		s.met.consolidateMoves.Inc()
	}
	res.Consolidations++
	s.met.consolidations.Inc()
}

// actualCPU returns the PM's per-CPU-dimension actual load in units
// (requested units scaled by each VM's trace at the step). The result
// is a buffer the next call overwrites.
//
//prvm:hotpath
func (s *Simulation) actualCPU(pm *placement.PM, step int) []float64 {
	st := s.state(pm)
	if st.hi == 0 {
		return nil
	}
	if st.gen != pm.Gen()+1 {
		s.plan(st, pm)
	}
	load := s.load[:st.hi-st.lo]
	clear(load)
	row := s.util[step*s.n : (step+1)*s.n]
	for _, t := range st.terms {
		load[t.dim] += t.units * row[t.col]
	}
	return load
}

// plan rebuilds st's terms from pm's hosted set. They are in its
// ascending VM-id order: float addition is not associative, so map
// order would make the load (and every threshold decision downstream)
// differ bit-for-bit between runs of one seed. A VM without a workload
// has no trace and no term.
func (s *Simulation) plan(st *pmState, pm *placement.PM) {
	st.terms = st.terms[:0]
	for _, h := range pm.HostedVMs() {
		c := s.col.slot(h.VM.ID).pos
		if c == 0 {
			continue
		}
		for _, du := range h.Assign {
			if du.Dim >= st.lo && du.Dim < st.hi {
				st.terms = append(st.terms, term{col: c - 1, dim: int32(du.Dim - st.lo), units: float64(du.Units)})
			}
		}
	}
	st.gen = pm.Gen() + 1
}

// relieve migrates VMs off an overloaded PM until no CPU dimension
// exceeds the threshold, each successful move counting as a migration.
// s.over holds the dimensions tick found overloaded, and every move
// classifies the PM again.
func (s *Simulation) relieve(pm *placement.PM, st *pmState, step int, res *Result) {
	for evictions := 0; evictions < maxEvictionsPerPM && len(s.over) > 0; evictions++ {
		victimID, ok := s.evictor.SelectVictim(pm, s.over)
		if !ok {
			return
		}
		if _, dest, _ := s.cluster.Migrate(migrator{s}, victimID, nil); dest == nil {
			// No destination: the VM stays where it was.
			res.FailedMigrations++
			s.met.failedMoves.Inc()
			return
		}
		res.Migrations++
		s.met.relieveMoves.Inc()
		_, _, s.over = Classify(s.actualCPU(pm, step), st.lo, st.cap, *s.cfg.OverloadThreshold, s.over[:0])
	}
}
