//go:build !race

package pagerankvm_test

// Allocation gates for the Algorithm 2 hot paths — ScoreOn (memo hit
// and miss), the full Place scan, the table-cache hit: the hotalloc
// analyzer holds the annotated functions allocation-free statically,
// and these tests hold them there at runtime. Excluded under -race
// because the race runtime instruments allocations and skews
// AllocsPerRun.

import (
	"io"
	"runtime"
	"testing"

	"pagerankvm/internal/experiments"
	"pagerankvm/internal/obs/record"
	"pagerankvm/internal/placement"
	"pagerankvm/internal/ranktable"
	"pagerankvm/internal/resource"
)

func TestScoreOnZeroAllocs(t *testing.T) {
	cat, err := experiments.AmazonCatalog()
	if err != nil {
		t.Fatal(err)
	}
	reg, err := cat.BuildRegistry(ranktable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	placer := placement.NewPageRankVM(reg, placement.WithSeed(1))
	cluster := cat.BuildCluster(4)
	for id := 0; id < 6; id++ {
		vm, err := cat.NewVM(id, "m3.large")
		if err != nil {
			t.Fatal(err)
		}
		pm, assign, err := placer.Place(cluster, vm, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := cluster.Host(pm, vm, assign); err != nil {
			t.Fatal(err)
		}
	}
	pm := cluster.UsedPMs()[0]
	probe, err := cat.NewVM(10_000, "c3.xlarge")
	if err != nil {
		t.Fatal(err)
	}
	// Hit: once evaluated, the (PM, VM type) answer is served from the
	// PM's memo until the PM mutates — what serve's re-score of every
	// committed placement and the descheduler's source/destination
	// scores after a scan cost, and what BenchmarkPlaceLookup/fast times.
	if _, ok := placer.ScoreOn(pm, probe); !ok {
		t.Fatal("probe does not fit the loaded PM")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := placer.ScoreOn(pm, probe); !ok {
			t.Fatal("lookup failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("ScoreOn memo hit allocates %.1f times per op, want 0", allocs)
	}
	// Miss: a release + re-host between two lookups invalidates the
	// memo, so ScoreOn recomputes (Fits, node ids, BestMove) and refills
	// it. The mutation itself makes no allocations (TestHostReleaseZeroAllocs
	// holds it there), so base reads 0; ScoreOn must add nothing to it.
	var resident *placement.VM
	for _, h := range pm.VMs() {
		resident = h.VM
	}
	mutate := func() {
		h, err := cluster.Release(resident.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := cluster.Host(pm, h.VM, h.Assign); err != nil {
			t.Fatal(err)
		}
	}
	base := testing.AllocsPerRun(100, mutate)
	miss := testing.AllocsPerRun(100, func() {
		mutate()
		if _, ok := placer.ScoreOn(pm, probe); !ok {
			t.Fatal("lookup failed")
		}
	})
	if miss != base {
		t.Fatalf("ScoreOn memo miss allocates: %.1f allocs per release+host+ScoreOn vs %.1f per release+host", miss, base)
	}
}

// TestHostReleaseZeroAllocs holds the one mutation path that admission,
// WAL replay, snapshot load, rebalance and the simulator share to zero
// allocations once the hosted sets have their working size: Host and
// Release update the PM's profile in place.
func TestHostReleaseZeroAllocs(t *testing.T) {
	f := newChurnFixture(t, 50)
	pm := f.cluster.UsedPMs()[0]
	resident := pm.HostedVMs()[0].VM.ID
	allocs := testing.AllocsPerRun(1000, func() {
		h, err := f.cluster.Release(resident)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.cluster.Host(pm, h.VM, h.Assign); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Host + Release allocates %.1f times per cycle, want 0", allocs)
	}
}

// TestPlaceScanAllocs holds a steady-state Place over 1000 used PMs to
// what binding the winner costs — the materialized move, one
// allocation, aligned to the PM's dimension order in place — however
// many candidates the scan considers.
func TestPlaceScanAllocs(t *testing.T) {
	f := newChurnFixture(t, 1000)
	probes := make([]*placement.VM, len(f.names))
	for i, name := range f.names {
		vm, err := f.cat.NewVM(-1-i, name)
		if err != nil {
			t.Fatal(err)
		}
		probes[i] = vm
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		// Place without Host: a pure decision against the same state.
		if _, _, err := f.placer.Place(f.cluster, probes[i%len(probes)], nil); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 1 {
		t.Fatalf("Place over %d used PMs allocates %.1f times per call, want <= 1 (the winner's assignment)", f.cluster.NumUsed(), allocs)
	}
}

// TestRegistryRetainedHeap holds the production registry to what
// Algorithm 2 reads — scores and one winning move per (node, type); the
// lattices keep only their rank tables — measured the way benchmarks/
// measures live_heap_mb: two collections, then the HeapAlloc delta.
// With every feasible permutation of every (profile, VM type) retained
// it was 72.7 MB; with the union graph and the node arena, 11.3 MB.
func TestRegistryRetainedHeap(t *testing.T) {
	cat, err := experiments.AmazonCatalog()
	if err != nil {
		t.Fatal(err)
	}
	before := liveHeapMB()
	reg, err := cat.BuildRegistry(ranktable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	retained := liveHeapMB() - before
	runtime.KeepAlive(reg)
	t.Logf("registry retains %.1f MB", retained)
	if retained > 7 {
		t.Fatalf("registry retains %.1f MB, want <= 7", retained)
	}
}

// TestCacheHitZeroAllocs holds the table-cache hit path allocation-free:
// the key is assembled in a stack buffer, the probe goes through the
// compiler's map[string(bytes)] optimization, and waiting on the
// completed build is a receive from an already-closed channel.
func TestCacheHitZeroAllocs(t *testing.T) {
	cat, err := experiments.AmazonCatalog()
	if err != nil {
		t.Fatal(err)
	}
	cache := ranktable.NewCache(0, nil)
	opts := ranktable.Options{Cache: cache}
	// Warm the cache with the production heterogeneous fleet: every
	// factored key and every per-group joint key lands in the cache.
	if _, err := cat.BuildRegistry(opts); err != nil {
		t.Fatal(err)
	}
	pm := cat.PMs[0]
	shape, ok := cat.Shape(pm.Name)
	if !ok {
		t.Fatalf("no shape for %s", pm.Name)
	}
	var types []resource.VMType
	for _, vm := range cat.VMs {
		d, ok := cat.Demand(pm.Name, vm.Name)
		if ok && d.Validate(shape) == nil {
			types = append(types, d)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ranktable.NewFactored(shape, types, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cache-hit table lookup allocates %.1f times per op, want 0", allocs)
	}
}

// TestRecordOpZeroAllocs holds the WAL append to the line scratch the
// Recorder owns: an op whose names need no JSON escape never reaches
// encoding/json, so nothing is boxed and nothing reflected over.
func TestRecordOpZeroAllocs(t *testing.T) {
	rec, err := record.NewWriter(io.Discard, record.RunMeta{Kind: "alloc-gate"})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() { rec.RecordOp(benchOp) })
	if allocs != 0 {
		t.Fatalf("RecordOp allocates %.1f times per op, want 0", allocs)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}
