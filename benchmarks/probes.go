package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"pagerankvm/internal/lattice"
	"pagerankvm/internal/obs"
	"pagerankvm/internal/obs/record"
	"pagerankvm/internal/pagerank"
	"pagerankvm/internal/placement"
	"pagerankvm/internal/ranktable"
	"pagerankvm/internal/resource"
)

// The per-layer probes. Each times calls into one layer's public
// functions from outside, at the scale of the workload being traced,
// and records a span around every timed call (batches of calls for the
// nanosecond-scale ones). They run only on the traced run.

// mirrorSpec sizes the bare cluster the resource/placement/ranktable
// lookup probes run on: what one shard (serve) or the whole workload
// (library workloads) holds.
type mirrorSpec struct {
	pmsPerType int
	// fill VMs are placed before the timed churn; releaseHalf then
	// releases a random half (the rebalance workload's fragmentation).
	fill        int
	releaseHalf bool
}

// probeScale sizes the probes: full runs repeat enough for steady
// numbers, -smoke runs only prove every probe works.
type probeScale struct {
	// catalogPasses is how many times the catalog probe times each build.
	catalogPasses int
	// serveOps is how many sequential requests each single-caller
	// serve probe issues; churn how many timed release/place pairs the
	// mirror probe makes; batch how many calls the nanosecond-scale
	// probes time per span.
	serveOps, churn, batch int
}

func (rc runCfg) probes() probeScale {
	if rc.smoke {
		return probeScale{catalogPasses: 1, serveOps: 100, churn: 100, batch: 2000}
	}
	return probeScale{catalogPasses: 3, serveOps: 3000, churn: 4000, batch: 200000}
}

// batchNs times fn run n times back to back and returns ns per call,
// recording one span for the whole batch.
func batchNs(tr *tracer, name string, n int, fn func(i int)) float64 {
	if n <= 0 {
		return 0
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	t1 := time.Now()
	tr.record(name, t0, t1, int64(n))
	return float64(t1.Sub(t0)) / float64(n)
}

// sink defeats dead-code elimination of probe loops.
var sink int

// mirror is the filled bare cluster the probes share, with the ops that
// built it (the record probe replays them into a recording).
type mirror struct {
	cluster  *placement.Cluster
	placer   *placement.PageRankVM
	resident []*placement.VM
	ops      []record.Op
	rng      *rand.Rand
	nextID   int
}

func (m *mirror) place(e *env, tr *tracer, timed bool) (placeNs, hostNs int64, ok bool, err error) {
	m.nextID++
	vm, err := e.cat.NewVM(m.nextID, e.vmType(m.rng))
	if err != nil {
		return 0, 0, false, err
	}
	t0 := time.Now()
	pm, assign, perr := m.placer.Place(m.cluster, vm, nil)
	t1 := time.Now()
	if perr != nil {
		if errors.Is(perr, placement.ErrNoCapacity) {
			return int64(t1.Sub(t0)), 0, false, nil
		}
		return 0, 0, false, perr
	}
	opened := !pm.Active()
	t2 := time.Now()
	if err := m.cluster.Host(pm, vm, assign); err != nil {
		return 0, 0, false, err
	}
	t3 := time.Now()
	if timed {
		tr.record("placement.place", t0, t1, int64(vm.ID))
		tr.record("placement.host", t2, t3, int64(vm.ID))
	}
	m.resident = append(m.resident, vm)
	op := record.Op{Kind: record.OpPlace, VM: vm.ID, VMType: vm.Type, PM: pm.ID, PMType: pm.Type, Opened: opened}
	for _, du := range assign {
		op.Assign = append(op.Assign, record.OpAssign{Dim: du.Dim, Units: du.Units})
	}
	m.ops = append(m.ops, op)
	return int64(t1.Sub(t0)), int64(t3.Sub(t2)), true, nil
}

func (m *mirror) release(tr *tracer, timed bool) (int64, error) {
	j := m.rng.Intn(len(m.resident))
	vm := m.resident[j]
	last := len(m.resident) - 1
	m.resident[j] = m.resident[last]
	m.resident = m.resident[:last]
	pm, _ := m.cluster.Locate(vm.ID)
	t0 := time.Now()
	if _, err := m.cluster.Release(vm.ID); err != nil {
		return 0, err
	}
	t1 := time.Now()
	if timed {
		tr.record("placement.release", t0, t1, int64(vm.ID))
	}
	m.ops = append(m.ops, record.Op{Kind: record.OpRelease, VM: vm.ID, VMType: vm.Type, PM: pm.ID})
	return int64(t1.Sub(t0)), nil
}

// probeCommon runs the probes every workload shares — each builds a
// registry and places through it: lattice, pagerank and ranktable on
// the catalog, resource and placement on the mirror cluster. It
// returns the mirror for the record probe.
func probeCommon(e *env, rc runCfg, res *result, spec mirrorSpec) (*mirror, error) {
	reg, err := probeCatalog(e, rc, res)
	if err != nil {
		return nil, err
	}
	return probeMirror(e, rc, res, reg, spec)
}

// probeCatalog times the rank-table build bottom-up: the lattice of
// each distinct group sub-shape, PageRank on those graphs, then the
// factored tables cold and from a shared cache.
func probeCatalog(e *env, rc runCfg, res *result) (*ranktable.Registry, error) {
	tr, scale := rc.tr, rc.probes()
	type subBuild struct {
		shape *resource.Shape
		types []resource.VMType
	}
	var subs []subBuild
	seen := map[string]bool{}
	typesOf := map[string][]resource.VMType{}
	for _, pm := range e.cat.PMs {
		shape, _ := e.cat.Shape(pm.Name)
		var types []resource.VMType
		for _, vm := range e.cat.VMs {
			if d, ok := e.cat.Demand(pm.Name, vm.Name); ok && d.Validate(shape) == nil {
				types = append(types, d)
			}
		}
		typesOf[pm.Name] = types
		for gi := 0; gi < shape.NumGroups(); gi++ {
			var projected []resource.VMType
			for _, vt := range types {
				if p, ok := vt.Project(shape.Group(gi).Name); ok {
					projected = append(projected, p)
				}
			}
			key := fmt.Sprint(shape.Group(gi), projected)
			if seen[key] {
				continue
			}
			seen[key] = true
			subs = append(subs, subBuild{shape.SubShape(gi), projected})
		}
	}

	// scale.catalogPasses timed passes, medians reported; one untimed pass
	// first, because the lattice builder pools its wiring scratch and
	// whichever build ran first would pay for filling it.
	var latticeMs, absorbMs, ranksMs, jointMs []float64
	var nodes, edges, iterations int
	for pass := 0; pass <= scale.catalogPasses; pass++ {
		var lat, abs, rnk, jnt float64
		nodes, edges, iterations = 0, 0, 0
		for i, sb := range subs {
			t0 := time.Now()
			space, err := lattice.NewSpace(sb.shape, sb.types, lattice.Options{})
			t1 := time.Now()
			if err != nil {
				return nil, err
			}
			if pass == 0 {
				continue
			}
			tr.record("lattice.new_space", t0, t1, int64(i))
			lat += t1.Sub(t0).Seconds() * 1e3
			nodes += space.Len()
			edges += space.Edges()

			g := pagerank.CSR{Offsets: space.SuccOffsets(), Edges: space.SuccArena()}
			utils := space.Utils()
			t0 = time.Now()
			_, err = pagerank.AbsorptionValuesCSR(g, utils, pagerank.DefaultDamping, ranktable.DefaultRewardExponent)
			t1 = time.Now()
			if err != nil {
				return nil, err
			}
			tr.record("pagerank.absorption", t0, t1, int64(i))
			abs += t1.Sub(t0).Seconds() * 1e3

			// Algorithm 1 as printed (forward votes, then the BPRU
			// discount): no default path runs it, the probe keeps it
			// priced.
			t0 = time.Now()
			pr, err := pagerank.RanksCSR(g, pagerank.Options{})
			if err == nil {
				_, err = pagerank.BPRUCSR(g, utils)
			}
			t1 = time.Now()
			if err != nil {
				return nil, err
			}
			tr.record("pagerank.ranks_bpru", t0, t1, int64(i))
			rnk += t1.Sub(t0).Seconds() * 1e3
			iterations += pr.Iterations

			t0 = time.Now()
			if _, err := ranktable.NewJoint(sb.shape, sb.types, ranktable.Options{}); err != nil {
				return nil, err
			}
			t1 = time.Now()
			tr.record("ranktable.new_joint", t0, t1, int64(i))
			jnt += t1.Sub(t0).Seconds() * 1e3
		}
		if pass > 0 {
			latticeMs, absorbMs = append(latticeMs, lat), append(absorbMs, abs)
			ranksMs, jointMs = append(ranksMs, rnk), append(jointMs, jnt)
		}
	}
	res.layer["lattice.build_ms"] = median(latticeMs)
	res.layer["lattice.nodes"] = float64(nodes)
	res.layer["lattice.edges"] = float64(edges)
	res.layer["pagerank.absorb_ms"] = median(absorbMs)
	res.layer["pagerank.ranks_ms"] = median(ranksMs)
	res.layer["pagerank.iterations"] = float64(iterations)
	// NewJoint is lattice + PageRank + the move table; what is left
	// after the first two is the rank table's own work.
	res.layer["ranktable.self_ms"] = median(jointMs) - median(latticeMs) - median(absorbMs)

	// The registry cold (one shared cache, as BuildRegistry does), its
	// heap, then the same builds again as cache hits.
	before := liveHeapMB()
	cache := ranktable.NewCache(0, nil)
	reg := ranktable.NewRegistry()
	t0 := time.Now()
	for _, pm := range e.cat.PMs {
		shape, _ := e.cat.Shape(pm.Name)
		f, err := ranktable.NewFactored(shape, typesOf[pm.Name], ranktable.Options{Cache: cache})
		if err != nil {
			return nil, err
		}
		reg.Add(pm.Name, f)
	}
	t1 := time.Now()
	tr.record("ranktable.new_factored_cold", t0, t1, 0)
	res.layer["ranktable.build_ms"] = t1.Sub(t0).Seconds() * 1e3
	res.layer["ranktable.table_mb"] = liveHeapMB() - before
	res.layer["ranktable.cache_misses"] = float64(cache.Stats().Misses)
	var hitErr error
	res.layer["ranktable.cache_hit_ns"] = batchNs(tr, "ranktable.new_factored_hit", scale.batch/100, func(i int) {
		pm := e.cat.PMs[i%len(e.cat.PMs)]
		shape, _ := e.cat.Shape(pm.Name)
		if _, err := ranktable.NewFactored(shape, typesOf[pm.Name], ranktable.Options{Cache: cache}); err != nil {
			hitErr = err
		}
	})
	tr.count("ranktable.cache_hits", cache.Stats().Hits)
	tr.count("ranktable.cache_misses", cache.Stats().Misses)
	return reg, hitErr
}

// probeMirror fills the mirror cluster with the workload's op mix and
// times the placement layer's calls on it, then resource.Fits and the
// rank-table lookup on profiles sampled from it.
func probeMirror(e *env, rc runCfg, res *result, reg *ranktable.Registry, spec mirrorSpec) (*mirror, error) {
	tr, scale := rc.tr, rc.probes()
	o := obs.New()
	m := &mirror{
		cluster: e.cat.BuildCluster(spec.pmsPerType),
		placer:  placement.NewPageRankVM(reg, placement.WithSeed(rc.seed), placement.WithObserver(o)),
		rng:     rand.New(rand.NewSource(rc.seed)),
	}
	for i := 0; i < spec.fill; i++ {
		if _, _, _, err := m.place(e, tr, false); err != nil {
			return nil, err
		}
	}
	if spec.releaseHalf {
		for n := len(m.resident) / 2; n > 0; n-- {
			if _, err := m.release(tr, false); err != nil {
				return nil, err
			}
		}
	}

	counter := func(name string) int64 { return o.Counter(name).Value() }
	calls0, scanned0 := counter("placement.place_calls"), counter("placement.pms_scanned")
	ties0, nocap0 := counter("placement.ties_broken"), counter("placement.no_capacity")
	var placeNs, hostNs, releaseNs []int64
	usedSum := 0
	for i := 0; i < scale.churn && len(m.resident) > 0; i++ {
		d, err := m.release(tr, true)
		if err != nil {
			return nil, err
		}
		releaseNs = append(releaseNs, d)
		usedSum += m.cluster.NumUsed()
		p, h, ok, err := m.place(e, tr, true)
		if err != nil {
			return nil, err
		}
		placeNs = append(placeNs, p)
		if ok {
			hostNs = append(hostNs, h)
		}
	}
	calls := float64(counter("placement.place_calls") - calls0)
	sortInts(placeNs)
	res.layer["placement.place_us"] = float64(percentile(placeNs, 50)) / 1e3
	res.layer["placement.place_p99_us"] = float64(percentile(placeNs, 99)) / 1e3
	res.layer["placement.host_ns"] = meanInts(hostNs)
	res.layer["placement.release_ns"] = meanInts(releaseNs)
	if n := len(releaseNs); n > 0 {
		used := float64(usedSum) / float64(n)
		res.layer["placement.used_pms"] = used
		if used > 0 {
			res.layer["placement.ns_per_used_pm"] = float64(percentile(placeNs, 50)) / used
		}
	}
	if calls > 0 {
		res.layer["placement.pms_scanned_per_place"] = float64(counter("placement.pms_scanned")-scanned0) / calls
		res.layer["placement.ties_per_place"] = float64(counter("placement.ties_broken")-ties0) / calls
	}
	res.layer["placement.no_capacity"] = float64(counter("placement.no_capacity") - nocap0)
	tr.count("placement.place_calls", int64(calls))
	tr.count("placement.pms_scanned", counter("placement.pms_scanned")-scanned0)

	// One candidate evaluation, one feasibility test and one table
	// lookup, each over (used PM, VM) pairs sampled from the mirror.
	used := m.cluster.UsedPMs()
	if len(used) == 0 {
		return m, nil
	}
	const pairs = 4096
	pms := make([]*placement.PM, pairs)
	vms := make([]*placement.VM, pairs)
	for i := range pms {
		pms[i] = used[m.rng.Intn(len(used))]
		vm, err := e.cat.NewVM(-1-i, e.vmType(m.rng))
		if err != nil {
			return nil, err
		}
		vms[i] = vm
	}
	res.layer["placement.score_on_ns"] = batchNs(tr, "placement.score_on", scale.batch, func(i int) {
		if _, ok := m.placer.ScoreOn(pms[i%pairs], vms[i%pairs]); ok {
			sink++
		}
	})
	res.layer["resource.fits_ns"] = batchNs(tr, "resource.fits", scale.batch, func(i int) {
		pm, vm := pms[i%pairs], vms[i%pairs]
		if d, ok := vm.DemandOn(pm.Type); ok && resource.Fits(pm.Shape, pm.Used(), d) {
			sink++
		}
	})
	var ids []int32
	res.layer["ranktable.lookup_ns"] = batchNs(tr, "ranktable.lookup", scale.batch, func(i int) {
		pm, vm := pms[i%pairs], vms[i%pairs]
		ranker, _ := reg.Get(pm.Type)
		fr, ok := ranker.(ranktable.FastRanker)
		d, okD := vm.DemandOn(pm.Type)
		if !ok || !okD {
			return
		}
		var okIDs bool
		if ids, okIDs = fr.NodeIDs(pm.Used(), ids[:0]); !okIDs {
			return
		}
		if ref, ok := fr.ResolveType(d); ok {
			if _, n, ok := fr.BestMove(ids, ref); ok {
				sink += n
			}
		}
	})
	runtime.KeepAlive(reg)
	return m, nil
}

// probeRecord writes the mirror's ops through a recording on a temp
// file the way the WAL does — append, then flush — and reads them back.
func probeRecord(e *env, tr *tracer, res *result, ops []record.Op) error {
	if len(ops) == 0 {
		return nil
	}
	const maxOps = 20000
	if len(ops) > maxOps {
		ops = ops[len(ops)-maxOps:]
	}
	dir, err := e.dataDir("record-probe")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "probe.jsonl")
	rec, err := record.Create(path, record.RunMeta{Kind: "benchmark-probe"})
	if err != nil {
		return err
	}
	var opNs, flushNs int64
	for i, op := range ops {
		t0 := time.Now()
		rec.RecordOp(op)
		t1 := time.Now()
		ferr := rec.Flush()
		t2 := time.Now()
		if ferr != nil {
			_ = rec.Close() // the flush error is the one to report
			return ferr
		}
		tr.record("record.op", t0, t1, int64(i))
		tr.record("record.flush", t1, t2, int64(i))
		opNs += int64(t1.Sub(t0))
		flushNs += int64(t2.Sub(t1))
	}
	var syncNs int64
	const syncs = 10
	for i := 0; i < syncs; i++ {
		rec.RecordOp(ops[i%len(ops)])
		t0 := time.Now()
		if err := rec.Sync(); err != nil {
			_ = rec.Close() // the sync error is the one to report
			return err
		}
		t1 := time.Now()
		tr.record("record.sync", t0, t1, int64(i))
		syncNs += int64(t1.Sub(t0))
	}
	if err := rec.Close(); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	n := float64(len(ops))
	res.layer["record.op_ns"] = float64(opNs) / n
	res.layer["record.flush_us"] = float64(flushNs) / n / 1e3
	res.layer["record.sync_us"] = float64(syncNs) / syncs / 1e3
	res.layer["record.bytes_per_op"] = float64(info.Size()) / (n + syncs)

	rd, err := record.Open(path)
	if err != nil {
		return err
	}
	read := 0
	t0 := time.Now()
	for {
		ent, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			_ = rd.Close() // read-only; the parse error is the one to report
			return err
		}
		if ent.Op != nil {
			read++
		}
	}
	t1 := time.Now()
	tr.record("record.read_all", t0, t1, int64(read))
	if err := rd.Close(); err != nil {
		return err
	}
	res.check("record.read_back_all", read == len(ops)+syncs, fmt.Sprintf("wrote %d ops, read %d", len(ops)+syncs, read))
	if sec := t1.Sub(t0).Seconds(); sec > 0 {
		res.layer["record.read_ops_per_s"] = float64(read) / sec
	}
	return nil
}

func sortInts(xs []int64) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }

func meanInts(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t int64
	for _, x := range xs {
		t += x
	}
	return float64(t) / float64(len(xs))
}
