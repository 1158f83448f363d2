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
	DefaultCPUGroup          = "cpu"

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
	// CPUGroup names the trace-driven resource group.
	CPUGroup string
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
	if c.CPUGroup == "" {
		c.CPUGroup = DefaultCPUGroup
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
	models  map[string]*energy.Model // PM type -> power model
	// util[step*len(col)+col[id]] is VM id's utilization at step: one
	// contiguous row per monitoring step.
	util    []float64
	col     map[int]int32           // vm id -> column of util
	load    []float64               // actualCPU's result, reused
	active  []*placement.PM         // tick's snapshot of the used list, reused
	vms     []*placement.VM         // arrivals at step 0
	arrives map[int][]*placement.VM // step -> arrivals (step > 0)
	departs map[int][]int           // step -> departing vm ids
	resched *deschedule.Engine      // nil when rebalancing is off
	met     simMetrics
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
	for _, pm := range cluster.PMs() {
		if _, ok := models[pm.Type]; !ok {
			return nil, fmt.Errorf("sim: no power model for PM type %q", pm.Type)
		}
	}
	s := &Simulation{
		cfg:     cfg,
		cluster: cluster,
		placer:  placer,
		evictor: evictor,
		models:  models,
		col:     make(map[int]int32, len(workloads)),
		arrives: make(map[int][]*placement.VM),
		departs: make(map[int][]int),
		met:     newSimMetrics(cfg.Obs),
	}
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
	for _, w := range workloads {
		if w.VM == nil {
			return nil, errors.New("sim: nil VM in workload")
		}
		if _, dup := s.col[w.VM.ID]; dup {
			return nil, fmt.Errorf("sim: duplicate VM id %d", w.VM.ID)
		}
		if w.Start < 0 || (w.End != 0 && w.End <= w.Start) {
			return nil, fmt.Errorf("sim: vm %d has invalid lease [%d,%d)", w.VM.ID, w.Start, w.End)
		}
		s.col[w.VM.ID] = int32(len(s.col))
		if w.Start == 0 {
			s.vms = append(s.vms, w.VM)
		} else {
			s.arrives[w.Start] = append(s.arrives[w.Start], w.VM)
		}
		if w.End > 0 {
			s.departs[w.End] = append(s.departs[w.End], w.VM.ID)
		}
	}
	// Step by step, so the writes are sequential and each trace's cache
	// line serves several steps.
	n, steps := len(workloads), cfg.Steps()
	s.util = make([]float64, n*steps)
	for step := 0; step < steps; step++ {
		row := s.util[step*n : (step+1)*n]
		for i, w := range workloads {
			row[i] = w.Trace.At(step)
		}
	}
	width := 0
	for _, pm := range cluster.PMs() {
		if gi := pm.Shape.GroupIndex(cfg.CPUGroup); gi >= 0 {
			width = max(width, pm.Shape.Group(gi).Dims)
		}
	}
	s.load = make([]float64, width)
	return s, nil
}

// Run performs the initial allocation and then steps the simulation
// through the horizon. It must be called at most once.
func (s *Simulation) Run() (Result, error) {
	var res Result

	// Initial allocation. Placers that define a VM ordering (FFDSum)
	// get to sort the queue first.
	queue := make([]*placement.VM, len(s.vms))
	copy(queue, s.vms)
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
		load := s.actualCPU(pm, step)
		gi := pm.Shape.GroupIndex(s.cfg.CPUGroup)
		if gi < 0 {
			continue
		}
		lo, hi := pm.Shape.GroupRange(gi)
		capUnits := float64(pm.Shape.Group(gi).Cap)

		// Metrics for this PM-interval.
		res.ActivePMSteps++
		violated := false
		overloaded := false
		total := 0.0
		for d := lo; d < hi; d++ {
			total += load[d-lo]
			if load[d-lo] >= capUnits-sloEpsilon {
				violated = true
			}
			if load[d-lo] > (*s.cfg.OverloadThreshold)*capUnits {
				overloaded = true
			}
		}
		if violated {
			res.ViolatedPMSteps++
			stats.ViolatedPMs++
			s.met.sloViolations.Inc()
		}
		cpuUtil := total / (capUnits * float64(hi-lo))
		meter.Accumulate(s.models[pm.Type], cpuUtil, s.cfg.Interval)
		activePMsSeen++
		utilSum += cpuUtil

		if overloaded {
			res.OverloadEvents++
			stats.OverloadedPMs++
			s.met.overloads.Inc()
			s.relieve(pm, step, res)
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
		_, dest, _ := s.cluster.Migrate(migrator{s}, id, func(_ placement.Hosted, dest *placement.PM) bool { return dest.Active() })
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
	gi := pm.Shape.GroupIndex(s.cfg.CPUGroup)
	if gi < 0 {
		return nil
	}
	lo, hi := pm.Shape.GroupRange(gi)
	load := s.load[:hi-lo]
	clear(load)
	n := len(s.col)
	row := s.util[step*n : (step+1)*n]
	// Accumulate in the hosted set's ascending VM-id order: float
	// addition is not associative, so map order would make the load (and
	// every threshold decision downstream) differ bit-for-bit between
	// runs of one seed. A VM without a workload has no trace.
	for _, h := range pm.HostedVMs() {
		c, ok := s.col[h.VM.ID]
		if !ok {
			continue
		}
		u := row[c]
		for _, du := range h.Assign {
			if du.Dim >= lo && du.Dim < hi {
				load[du.Dim-lo] += float64(du.Units) * u
			}
		}
	}
	return load
}

// relieve migrates VMs off an overloaded PM until no CPU dimension
// exceeds the threshold, each successful move counting as a migration.
func (s *Simulation) relieve(pm *placement.PM, step int, res *Result) {
	for evictions := 0; evictions < maxEvictionsPerPM; evictions++ {
		load := s.actualCPU(pm, step)
		gi := pm.Shape.GroupIndex(s.cfg.CPUGroup)
		lo, hi := pm.Shape.GroupRange(gi)
		capUnits := float64(pm.Shape.Group(gi).Cap)
		var overloadedDims []int
		for d := lo; d < hi; d++ {
			if load[d-lo] > (*s.cfg.OverloadThreshold)*capUnits {
				overloadedDims = append(overloadedDims, d)
			}
		}
		if len(overloadedDims) == 0 {
			return
		}
		victimID, ok := s.evictor.SelectVictim(pm, overloadedDims)
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
	}
}
