package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"pagerankvm/internal/deschedule"
	"pagerankvm/internal/experiments"
	"pagerankvm/internal/placement"
	"pagerankvm/internal/ranktable"
	"pagerankvm/internal/resource"
	"pagerankvm/internal/sim"
	"pagerankvm/internal/trace"
)

// timedPlacer wraps the Placer handed to the simulator: it times every
// Place call from outside (one latency sample each) and, on the traced
// run, records a span per call.
type timedPlacer struct {
	inner placement.Placer
	lats  []int64
	tr    *tracer
	op    int64
}

func (p *timedPlacer) Name() string { return p.inner.Name() }

func (p *timedPlacer) Place(c *placement.Cluster, vm *placement.VM, exclude *placement.PM) (*placement.PM, resource.Assignment, error) {
	t0 := time.Now()
	pm, assign, err := p.inner.Place(c, vm, exclude)
	t1 := time.Now()
	p.lats = append(p.lats, int64(t1.Sub(t0)))
	p.tr.record("placement.place", t0, t1, p.op)
	return pm, assign, err
}

// timedEvictor wraps the Evictor handed to the simulator on the traced
// run, recording a span per victim selection.
type timedEvictor struct {
	inner placement.Evictor
	tr    *tracer
	op    int64
}

func (e *timedEvictor) Name() string { return e.inner.Name() }

func (e *timedEvictor) SelectVictim(pm *placement.PM, overloaded []int) (int, bool) {
	t0 := time.Now()
	id, ok := e.inner.SelectVictim(pm, overloaded)
	e.tr.record("placement.select_victim", t0, time.Now(), e.op)
	return id, ok
}

// checkCluster verifies the invariants a placement must keep on every
// PM: the used vector is the sum of the hosted assignments and within
// capacity, and no VM holds two units on one dimension (the
// anti-collocation constraint).
func checkCluster(c *placement.Cluster) error {
	vms := 0
	for _, pm := range c.PMs() {
		capacity := pm.Shape.Capacity()
		sum := pm.Shape.Zero()
		holder := make([]int, len(sum)) // dimension -> 1 + the VM last seen on it
		for id, h := range pm.VMs() {
			for _, du := range h.Assign {
				if holder[du.Dim] == id+1 {
					return fmt.Errorf("pm %d: vm %d holds two units on dimension %d", pm.ID, id, du.Dim)
				}
				holder[du.Dim] = id + 1
				sum[du.Dim] += du.Units
			}
		}
		vms += pm.NumVMs()
		for d, u := range pm.Used() {
			if u != sum[d] {
				return fmt.Errorf("pm %d: used[%d]=%d but assignments sum to %d", pm.ID, d, u, sum[d])
			}
			if u > capacity[d] {
				return fmt.Errorf("pm %d: used[%d]=%d above capacity %d", pm.ID, d, u, capacity[d])
			}
		}
		if pm.Active() != (pm.NumVMs() > 0) {
			return fmt.Errorf("pm %d: active flag disagrees with its VM count", pm.ID)
		}
	}
	if vms != c.NumVMs() {
		return fmt.Errorf("cluster locates %d VMs but PMs host %d", c.NumVMs(), vms)
	}
	return nil
}

// streamSeed derives the seed of a workload's i-th independent input
// stream, so that runs with neighbouring -seed values share no stream.
func streamSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// repClock accumulates the slices of a repetition-based workload: per
// repetition its latency samples and its measured seconds.
type repClock struct {
	lats [][]int64
	secs []float64
}

// phases is the measured clock of a repetition-based workload. The
// untraced run has one phase; the traced run spends the first half of
// -seconds untraced (plain) and the second half traced, and the two
// medians give the tracing overhead.
type phases struct {
	plain, traced repClock
	elapsed       float64
}

// tracer returns the tracer the next repetition should use: nil until
// half of seconds has been measured, and always nil on an untraced run.
func (p *phases) tracer(rc runCfg) *tracer {
	if p.elapsed < rc.seconds/2 {
		return nil
	}
	return rc.tr
}

// add books one repetition that ran with tr: its latency samples, the
// seconds its slice lasted, and any further measured seconds (the
// build before a reference fill) that count towards -seconds only.
func (p *phases) add(tr *tracer, lats []int64, sec, more float64) {
	c := &p.plain
	if tr != nil {
		c = &p.traced
	}
	c.lats = append(c.lats, lats)
	c.secs = append(c.secs, sec)
	p.elapsed += sec + more
}

// reps is how many repetitions ran in both phases.
func (p *phases) reps() int { return len(p.plain.secs) + len(p.traced.secs) }

// report reduces the untraced phase to the end-to-end metrics every
// repetition-based workload shares — one slice per repetition — frees
// the samples, and measures the live heap last.
func (p *phases) report(res *result, taskS, activePMs, kwh float64) {
	st := reduceSlices(p.plain.lats, p.plain.secs)
	res.e2e["decisions_per_s"] = st.perSec
	res.e2e["place_p50_us"] = st.p50 / 1e3
	res.e2e["place_p95_us"] = st.p95 / 1e3
	res.extra["place_p99_us"] = st.p99 / 1e3
	res.extra["place_samples"] = float64(st.n)
	res.e2e["task_s"] = taskS
	res.e2e["active_pms"] = activePMs
	res.e2e["energy_kwh"] = kwh
	p.plain.lats, p.traced.lats = nil, nil
	res.e2e["live_heap_mb"] = liveHeapMB()
}

// overheadPct is how much slower the traced repetitions' median was.
func (p *phases) overheadPct() float64 {
	b := median(p.plain.secs)
	if b <= 0 || len(p.traced.secs) == 0 {
		return 0
	}
	return 100 * (median(p.traced.secs) - b) / b
}

// ---------------------------------------------------------------- sim-paper

// simSizes is the input size of the sim-paper workload.
type simSizes struct {
	vms, pmsPerType, steps int
	// quality is how many repetitions — each on its own seeded request
	// stream — the paper's outputs are averaged over; at least that
	// many run, whatever -seconds.
	quality   int
	setupReps int
}

func (z simSizes) header() map[string]int64 {
	return map[string]int64{
		"vms": int64(z.vms), "pms_per_type": int64(z.pmsPerType), "steps": int64(z.steps),
		"quality_reps": int64(z.quality), "setup_reps": int64(z.setupReps),
	}
}

func simPaperSizes(smoke bool) simSizes {
	if smoke {
		return simSizes{vms: 120, pmsPerType: 20, steps: 24, quality: 2, setupReps: 1}
	}
	return simSizes{vms: 3000, pmsPerType: 400, steps: 288, quality: 32, setupReps: 3}
}

// simStream generates one repetition's request stream: VM types, lease
// windows and PlanetLab traces, all from seed.
func simStream(e *env, z simSizes, seed int64) ([]sim.Workload, error) {
	return e.cat.GenWorkloads(trace.PlanetLab{Seed: seed}, experiments.WorkloadConfig{
		NumVMs: z.vms, Seed: seed, Steps: z.steps,
	})
}

// simRep runs one simulated horizon and returns the result, the final
// cluster, the Place latencies and the wall seconds of New+Run.
func simRep(e *env, z simSizes, reg *ranktable.Registry, stream []sim.Workload, seed int64, tr *tracer, op int64) (sim.Result, *placement.Cluster, []int64, float64, error) {
	prvm := placement.NewPageRankVM(reg, placement.WithSeed(seed))
	placer := &timedPlacer{inner: prvm, lats: make([]int64, 0, 2*len(stream)), tr: tr, op: op}
	var evictor placement.Evictor = placement.RankEvictor{Placer: prvm}
	if tr != nil {
		evictor = &timedEvictor{inner: evictor, tr: tr, op: op}
	}
	cluster := e.cat.BuildCluster(z.pmsPerType)
	tr.begin("sim.rep", op)
	t0 := time.Now()
	s, err := sim.New(sim.Config{
		Horizon: time.Duration(z.steps) * sim.DefaultInterval,
	}, cluster, placer, evictor, e.models, stream)
	if err != nil {
		tr.end()
		return sim.Result{}, nil, nil, 0, err
	}
	res, err := s.Run()
	sec := time.Since(t0).Seconds()
	tr.end()
	return res, cluster, placer.lats, sec, err
}

func runSimPaper(ctx context.Context, e *env, z simSizes, rc runCfg) (*result, error) {
	res := newResult()

	// Set-up: a cold registry and the first repetition's stream. Later
	// repetitions generate theirs off the clock, so the heap holds one
	// stream at a time however long the run.
	var (
		reg    *ranktable.Registry
		stream []sim.Workload
		setups []float64
		gens   []float64
	)
	for rep := 0; rep < z.setupReps; rep++ {
		t0 := time.Now()
		var err error
		if reg, err = e.coldRegistry(); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if stream, err = simStream(e, z, streamSeed(rc.seed, 0)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		gens = append(gens, time.Since(t1).Seconds())
	}
	res.e2e["setup_s"] = median(setups)
	initial := initialVMs(stream)

	// Measured phase. On the traced run the first half runs untraced,
	// the second traced; their rates give the tracing overhead.
	var (
		ph            phases
		first         sim.Result
		pmsUsed, kwhs []float64
		stats         simTotals
	)
	for rep := 0; ph.elapsed < rc.seconds || rep < z.quality; rep++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if rep > 0 {
			var err error
			if stream, err = simStream(e, z, streamSeed(rc.seed, rep)); err != nil {
				return nil, err
			}
		}
		tr := ph.tracer(rc)
		r, cluster, lats, sec, err := simRep(e, z, reg, stream, streamSeed(rc.seed, rep), tr, int64(rep))
		if err != nil {
			return nil, fmt.Errorf("rep %d: %w", rep, err)
		}
		ph.add(tr, lats, sec, 0)
		if tr != nil {
			stats.add(r, len(lats))
		}
		res.attempted += int64(len(stream) + r.Migrations + r.FailedMigrations)
		res.failed += int64(r.Rejected + r.FailedMigrations)
		if rep < z.quality {
			pmsUsed = append(pmsUsed, float64(r.PMsUsed))
			kwhs = append(kwhs, r.EnergyKWh)
			err := checkCluster(cluster)
			res.check("sim.cluster_invariants", err == nil, fmt.Sprint(err))
		}
		if rep == 0 {
			first = r
		}
	}
	ph.report(res, median(ph.plain.secs), mean(pmsUsed), mean(kwhs))
	res.extra["reps"] = float64(ph.reps())
	runtime.KeepAlive(stream)
	runtime.KeepAlive(reg)

	// Output check: repetition 0 again, stream regenerated from its
	// seed, must give the identical Result.
	if stream, err := simStream(e, z, streamSeed(rc.seed, 0)); err != nil {
		return nil, err
	} else if again, _, _, _, err := simRep(e, z, reg, stream, streamSeed(rc.seed, 0), nil, -1); err != nil {
		return nil, err
	} else {
		res.check("sim.rerun_identical", again == first, fmt.Sprintf("rep 0 %+v, re-run %+v", first, again))
	}

	if rc.tr != nil {
		// Before the probes: they record placement.place spans of their own.
		stats.report(res, rc.tr, z)
		res.layer["trace.overhead_pct"] = ph.overheadPct()
		res.layer["experiments.gen_workloads_ms"] = median(gens) * 1e3
		if _, err := probeCommon(e, rc, res, mirrorSpec{pmsPerType: z.pmsPerType, fill: initial}); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// initialVMs counts the VMs a stream allocates at step 0.
func initialVMs(stream []sim.Workload) int {
	n := 0
	for _, w := range stream {
		if w.Start == 0 {
			n++
		}
	}
	return n
}

// simTotals accumulates the traced repetitions' counts.
type simTotals struct {
	reps, placements, migrations int
	slo                          []float64
}

func (s *simTotals) add(r sim.Result, places int) {
	s.reps++
	s.placements += places
	s.migrations += r.Migrations
	s.slo = append(s.slo, r.SLOViolationPct)
}

// report fills the sim.* per-layer metrics from the traced reps.
func (s *simTotals) report(res *result, tr *tracer, z simSizes) {
	if s.reps == 0 {
		return
	}
	reps := float64(s.reps)
	rep := tr.totals["sim.rep"]
	place, evict := tr.totals["placement.place"], tr.totals["placement.select_victim"]
	if rep == nil {
		return
	}
	run := float64(rep.TotalNs) / 1e9 / reps
	res.layer["sim.run_s"] = run
	res.layer["sim.self_s"] = float64(rep.SelfNs) / 1e9 / reps
	if place != nil {
		res.layer["sim.place_s"] = float64(place.TotalNs) / 1e9 / reps
	}
	if evict != nil {
		res.layer["sim.evict_s"] = float64(evict.TotalNs) / 1e9 / reps
	}
	res.layer["sim.placements"] = float64(s.placements) / reps
	res.layer["sim.migrations"] = float64(s.migrations) / reps
	res.layer["sim.slo_violation_pct"] = mean(s.slo)
	if run > 0 {
		res.layer["sim.vm_steps_per_s"] = float64(z.vms*z.steps) / run
	}
	us := map[string]float64{
		"placement.place":         res.layer["sim.place_s"] * 1e6,
		"placement.select_victim": res.layer["sim.evict_s"] * 1e6,
		"sim (self)":              res.layer["sim.self_s"] * 1e6,
	}
	res.stages = stageTable(run*1e6, []string{"sim (self)", "placement.place", "placement.select_victim"}, us)
}

// -------------------------------------------------------------- table-build

// tableSizes is the input size of the table-build workload.
type tableSizes struct {
	// minBuilds is the least number of cold builds, whatever -seconds.
	minBuilds int
	// fillPMs and fillVMs size the reference fill that uses each built
	// registry: a bare placer over fillPMs PMs per type. Builds cycle
	// through fillStreams seeded request streams, and the paper's
	// outputs are averaged over exactly the first cycle.
	fillPMs, fillVMs, fillStreams int
	setupReps                     int
}

func (z tableSizes) header() map[string]int64 {
	return map[string]int64{
		"min_builds": int64(z.minBuilds), "fill_pms_per_type": int64(z.fillPMs),
		"fill_vms": int64(z.fillVMs), "fill_streams": int64(z.fillStreams), "setup_reps": int64(z.setupReps),
	}
}

func tableBuildSizes(smoke bool) tableSizes {
	if smoke {
		return tableSizes{minBuilds: 2, fillPMs: 20, fillVMs: 100, fillStreams: 2, setupReps: 1}
	}
	return tableSizes{minBuilds: 8, fillPMs: 400, fillVMs: 3000, fillStreams: 8, setupReps: 3}
}

// registryDigest hashes the score of every lattice node of every group
// table of every PM type's ranker, in node-id order. (Table.Save is not
// usable for this: it gob-encodes a map, whose order varies run to run.)
func registryDigest(e *env, reg *ranktable.Registry) ([]byte, error) {
	h := sha256.New()
	var buf [8]byte
	ids := make([]int32, 1)
	for _, pm := range e.cat.PMs {
		ranker, ok := reg.Get(pm.Name)
		if !ok {
			return nil, fmt.Errorf("registry has no ranker for %s", pm.Name)
		}
		f, ok := ranker.(*ranktable.Factored)
		if !ok {
			return nil, fmt.Errorf("ranker for %s is %T, want *ranktable.Factored", pm.Name, ranker)
		}
		for gi := 0; gi < f.Shape().NumGroups(); gi++ {
			t := f.GroupTable(gi)
			if t == nil {
				continue
			}
			for id := 0; id < t.Len(); id++ {
				ids[0] = int32(id)
				score, ok := t.ScoreIDs(ids)
				if !ok {
					return nil, fmt.Errorf("%s group %d: node %d has no score", pm.Name, gi, id)
				}
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(score))
				_, _ = h.Write(buf[:]) // hash.Hash.Write never fails
			}
		}
	}
	return h.Sum(nil), nil
}

// builtState keeps a registry and the cluster filled with it reachable
// while the live heap is measured.
type builtState struct {
	reg     *ranktable.Registry
	cluster *placement.Cluster
}

// referenceFill places types one after another with a bare placer over
// a fresh cluster, timing each Place, and returns the cluster, the
// latencies and the wall seconds.
func referenceFill(e *env, reg *ranktable.Registry, pmsPerType int, types []string, seed int64, tr *tracer, op int64) (*placement.Cluster, []int64, float64, int, error) {
	cluster := e.cat.BuildCluster(pmsPerType)
	placer := placement.NewPageRankVM(reg, placement.WithSeed(seed))
	lats := make([]int64, 0, len(types))
	failed := 0
	start := time.Now()
	for i, typ := range types {
		vm, err := e.cat.NewVM(i, typ)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		t0 := time.Now()
		pm, assign, err := placer.Place(cluster, vm, nil)
		t1 := time.Now()
		lats = append(lats, int64(t1.Sub(t0)))
		tr.record("placement.place", t0, t1, op)
		if err != nil {
			failed++
			continue
		}
		if err := cluster.Host(pm, vm, assign); err != nil {
			return nil, nil, 0, 0, err
		}
	}
	return cluster, lats, time.Since(start).Seconds(), failed, nil
}

func runTableBuild(ctx context.Context, e *env, z tableSizes, rc runCfg) (*result, error) {
	res := newResult()

	// Set-up: the fills' request streams and one warm-up build, so
	// pooled scratch and first-touch page faults are paid before timing.
	var setups []float64
	types := make([][]string, z.fillStreams)
	for rep := 0; rep < z.setupReps; rep++ {
		t0 := time.Now()
		for k := range types {
			types[k] = e.vmTypes(rand.New(rand.NewSource(streamSeed(rc.seed, k))), z.fillVMs)
		}
		if _, err := e.coldRegistry(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.e2e["setup_s"] = median(setups)

	var (
		ph              phases
		builds, tBuilds []float64
		digest          []byte
		last            builtState
		used, kwhs      []float64
	)
	for i := 0; ph.elapsed < rc.seconds || i < z.minBuilds || i < z.fillStreams; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tr := ph.tracer(rc)
		runtime.GC()
		tr.begin("ranktable.build_registry", int64(i))
		t0 := time.Now()
		reg, err := e.coldRegistry()
		build := time.Since(t0).Seconds()
		tr.end()
		res.attempted++
		if err != nil {
			res.failed++
			res.check("table.build", false, err.Error())
			continue
		}
		k := i % z.fillStreams
		cluster, lats, sec, failed, err := referenceFill(e, reg, z.fillPMs, types[k], streamSeed(rc.seed, k), tr, int64(i))
		if err != nil {
			return nil, err
		}
		res.attempted += int64(len(types[k]))
		res.failed += int64(failed)
		ph.add(tr, lats, sec, build)
		if tr != nil {
			tBuilds = append(tBuilds, build)
		} else {
			builds = append(builds, build)
		}
		if i < z.fillStreams {
			used = append(used, float64(cluster.NumUsed()))
			kwhs = append(kwhs, e.clusterKWh(cluster))
		}
		last = builtState{reg, cluster}

		// Output checks, off the clock.
		d, err := registryDigest(e, reg)
		if err != nil {
			return nil, err
		}
		if digest == nil {
			digest = d
		}
		if i < z.fillStreams {
			err := checkCluster(cluster)
			res.check("table.fill_invariants", err == nil, fmt.Sprint(err))
		}
		res.check("table.registries_identical", bytes.Equal(d, digest), fmt.Sprintf("build %d scores differ from build 0", i))
	}
	ph.report(res, median(builds), mean(used), mean(kwhs))
	res.extra["builds"] = float64(ph.reps())
	res.extra["registry_build_ms"] = median(builds) * 1e3
	runtime.KeepAlive(last)

	if rc.tr != nil {
		if _, err := probeCommon(e, rc, res, mirrorSpec{pmsPerType: z.fillPMs, fill: z.fillVMs}); err != nil {
			return nil, err
		}
		if b := median(builds); b > 0 {
			res.layer["trace.overhead_pct"] = 100 * (median(tBuilds) - b) / b
		}
		// One cold registry build against its parts timed alone. The
		// groups of a PM type build concurrently, so the parts can add
		// up to more than the wall time; the remainder then goes negative.
		res.stages = stageTable(median(tBuilds)*1e6,
			[]string{"lattice.new_space", "pagerank.absorption", "ranktable (self)"},
			map[string]float64{
				"lattice.new_space":   res.layer["lattice.build_ms"] * 1e3,
				"pagerank.absorption": res.layer["pagerank.absorb_ms"] * 1e3,
				"ranktable (self)":    res.layer["ranktable.self_ms"] * 1e3,
			})
	}
	return res, nil
}

// ---------------------------------------------------------------- rebalance

// rebalanceSizes is the input size of the rebalance workload.
type rebalanceSizes struct {
	pmsPerType, vms int
	// quality is how many clusters the paper's outputs are averaged
	// over — and the least number rebalanced, whatever -seconds.
	quality   int
	setupReps int
}

func (z rebalanceSizes) header() map[string]int64 {
	return map[string]int64{
		"pms_per_type": int64(z.pmsPerType), "vms_placed": int64(z.vms), "vms_released": int64(z.vms / 2),
		"quality_clusters": int64(z.quality), "setup_reps": int64(z.setupReps),
		"max_moves_per_round": int64(rebalanceCfg.MaxMovesPerRound), "max_moves_per_pm": int64(rebalanceCfg.MaxMovesPerPM),
	}
}

func rebalanceWorkSizes(smoke bool) rebalanceSizes {
	if smoke {
		return rebalanceSizes{pmsPerType: 40, vms: 300, quality: 2, setupReps: 1}
	}
	return rebalanceSizes{pmsPerType: 600, vms: 6000, quality: 8, setupReps: 3}
}

// rebalanceCfg is the descheduler configuration under test.
var rebalanceCfg = deschedule.Config{MaxMovesPerRound: 64, MaxMovesPerPM: 8, DrainBelow: 0.3}

// maxRounds bounds a cluster's rebalance loop; quiescence comes far
// sooner, and hitting the bound fails a check.
const maxRounds = 10000

// fragmented builds one seeded fragmented cluster: place z.vms VMs,
// then release a random half. It returns the cluster and the placer
// that filled it (the engine shares it, as in serve and sim).
func fragmented(e *env, reg *ranktable.Registry, z rebalanceSizes, seed int64) (*placement.Cluster, *placement.PageRankVM, int64, int64, error) {
	rng := rand.New(rand.NewSource(seed))
	cluster := e.cat.BuildCluster(z.pmsPerType)
	placer := placement.NewPageRankVM(reg, placement.WithSeed(seed))
	var attempted, failed int64
	ids := make([]int, 0, z.vms)
	for i := 0; i < z.vms; i++ {
		vm, err := e.cat.NewVM(i, e.vmType(rng))
		if err != nil {
			return nil, nil, 0, 0, err
		}
		attempted++
		pm, assign, err := placer.Place(cluster, vm, nil)
		if err != nil {
			failed++
			continue
		}
		if err := cluster.Host(pm, vm, assign); err != nil {
			return nil, nil, 0, 0, err
		}
		ids = append(ids, i)
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, id := range ids[:len(ids)/2] {
		attempted++
		if _, err := cluster.Release(id); err != nil {
			return nil, nil, 0, 0, err
		}
	}
	return cluster, placer, attempted, failed, nil
}

// rebalanceTotals accumulates RoundStats over the traced clusters.
type rebalanceTotals struct {
	rounds, moves, scanned, freed int
	roundNs                       int64
}

func runRebalance(ctx context.Context, e *env, z rebalanceSizes, rc runCfg) (*result, error) {
	res := newResult()

	// Set-up: cold registry plus the first fragmented cluster.
	var (
		reg     *ranktable.Registry
		cluster *placement.Cluster
		placer  *placement.PageRankVM
		setups  []float64
	)
	for rep := 0; rep < z.setupReps; rep++ {
		t0 := time.Now()
		var (
			att, fl int64
			err     error
		)
		if reg, err = e.coldRegistry(); err != nil {
			return nil, err
		}
		if cluster, placer, att, fl, err = fragmented(e, reg, z, streamSeed(rc.seed, 0)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		res.attempted += att
		res.failed += fl
	}
	res.e2e["setup_s"] = median(setups)

	var (
		ph         phases
		used, kwhs []float64
		totals     rebalanceTotals
	)
	for i := 0; ph.elapsed < rc.seconds || i < z.quality; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if i > 0 {
			var (
				att, fl int64
				err     error
			)
			if cluster, placer, att, fl, err = fragmented(e, reg, z, streamSeed(rc.seed, i)); err != nil {
				return nil, err
			}
			res.attempted += att
			res.failed += fl
		}
		tr := ph.tracer(rc)
		// One latency sample per committed move: the time since the
		// previous move (or the round's start), taken in the engine's
		// OnMove hook — everything the engine did to find and commit it.
		var (
			lats []int64
			prev time.Time
		)
		cfg := rebalanceCfg
		cfg.OnMove = func(deschedule.Move) {
			now := time.Now()
			lats = append(lats, int64(now.Sub(prev)))
			tr.record("deschedule.move", prev, now, int64(len(lats)))
			prev = now
		}
		engine := deschedule.New(placer, cfg)
		vmsBefore := cluster.NumVMs()
		sec := 0.0
		round := 0
		for ; round < maxRounds; round++ {
			usedBefore := cluster.NumUsed()
			tr.begin("deschedule.round", int64(round))
			t0 := time.Now()
			prev = t0
			st := engine.Rebalance(cluster)
			d := time.Since(t0)
			tr.end()
			sec += d.Seconds()
			res.attempted += int64(st.Moves)
			if tr != nil {
				totals.rounds++
				totals.moves += st.Moves
				totals.scanned += st.Scanned
				totals.freed += st.PMsFreed
				totals.roundNs += int64(d)
			}
			if cluster.NumUsed() > usedBefore {
				res.check("rebalance.used_pms_monotone", false,
					fmt.Sprintf("cluster %d round %d: %d -> %d used PMs", i, round, usedBefore, cluster.NumUsed()))
			}
			if st.Moves == 0 {
				break
			}
		}
		res.check("rebalance.used_pms_monotone", true, "")
		res.check("rebalance.quiesced", round < maxRounds, fmt.Sprintf("cluster %d still moving after %d rounds", i, maxRounds))
		res.check("rebalance.vms_conserved", cluster.NumVMs() == vmsBefore,
			fmt.Sprintf("cluster %d: %d VMs before, %d after", i, vmsBefore, cluster.NumVMs()))
		ph.add(tr, lats, sec, 0)
		if i < z.quality {
			used = append(used, float64(cluster.NumUsed()))
			kwhs = append(kwhs, e.clusterKWh(cluster))
			err := checkCluster(cluster)
			res.check("rebalance.cluster_invariants", err == nil, fmt.Sprint(err))
		}
	}
	// One slice per cluster: a sample per committed move, the rate
	// moves per second of Rebalance.
	ph.report(res, median(ph.plain.secs), mean(used), mean(kwhs))
	res.extra["clusters"] = float64(ph.reps())
	runtime.KeepAlive(builtState{reg, cluster})

	if rc.tr != nil {
		if _, err := probeCommon(e, rc, res, mirrorSpec{pmsPerType: z.pmsPerType, fill: z.vms, releaseHalf: true}); err != nil {
			return nil, err
		}
		if totals.rounds > 0 {
			res.layer["deschedule.round_ms"] = float64(totals.roundNs) / 1e6 / float64(totals.rounds)
			res.layer["deschedule.rounds"] = float64(totals.rounds) / float64(len(ph.traced.secs))
			res.layer["deschedule.moves"] = float64(totals.moves) / float64(len(ph.traced.secs))
			res.layer["deschedule.pms_freed"] = float64(totals.freed) / float64(len(ph.traced.secs))
		}
		if totals.moves > 0 {
			res.layer["deschedule.scanned_per_move"] = float64(totals.scanned) / float64(totals.moves)
		}
		res.layer["trace.overhead_pct"] = ph.overheadPct()
		// One round against the placement calls its committed moves
		// need at the least, priced by the mirror probe: a Release, a
		// ScoreOn on the source, a Place excluding it and a Host each.
		// VMs considered and left in place are in the remainder.
		if totals.rounds > 0 {
			perRound := float64(totals.moves) / float64(totals.rounds)
			res.stages = stageTable(res.layer["deschedule.round_ms"]*1e3,
				[]string{"placement.place", "placement.release", "placement.score_on", "placement.host"},
				map[string]float64{
					"placement.place":    perRound * res.layer["placement.place_us"],
					"placement.release":  perRound * res.layer["placement.release_ns"] / 1e3,
					"placement.score_on": perRound * res.layer["placement.score_on_ns"] / 1e3,
					"placement.host":     perRound * res.layer["placement.host_ns"] / 1e3,
				})
		}
	}
	return res, nil
}
