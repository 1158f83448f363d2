package pagerankvm_test

// Micro-benchmarks for the integer-indexed hot paths (see DESIGN.md
// "Indexing & concurrency model"): id-indexed candidate scoring, one
// full Place scan, serial and parallel lattice wiring, the table cache
// and the CSR PageRank core. cmd/prvm-bench runs these and gates their
// allocs/op and ns/op against BENCH.json.

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"testing"

	"pagerankvm/internal/experiments"
	"pagerankvm/internal/lattice"
	"pagerankvm/internal/obs"
	"pagerankvm/internal/obs/record"
	"pagerankvm/internal/pagerank"
	"pagerankvm/internal/placement"
	"pagerankvm/internal/ranktable"
	"pagerankvm/internal/resource"
)

// benchPlaceLookup measures one candidate evaluation of Algorithm 2's
// inner loop — "score the best accommodation of this VM on this PM" —
// against the production M3/C3 factored tables.
func benchPlaceLookup(b *testing.B) {
	b.Helper()
	cat, err := experiments.AmazonCatalog()
	if err != nil {
		b.Fatal(err)
	}
	reg, err := cat.BuildRegistry(ranktable.Options{})
	if err != nil {
		b.Fatal(err)
	}
	placer := placement.NewPageRankVM(reg, placement.WithSeed(1))
	cluster := cat.BuildCluster(4)
	// Load one PM with a realistic mixed profile.
	for id := 0; id < 6; id++ {
		vm, err := cat.NewVM(id, "m3.large")
		if err != nil {
			b.Fatal(err)
		}
		pm, assign, err := placer.Place(cluster, vm, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := cluster.Host(pm, vm, assign); err != nil {
			b.Fatal(err)
		}
	}
	pm := cluster.UsedPMs()[0]
	probe, err := cat.NewVM(10_000, "c3.xlarge")
	if err != nil {
		b.Fatal(err)
	}
	if _, ok := placer.ScoreOn(pm, probe); !ok {
		b.Fatal("probe does not fit the loaded PM")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := placer.ScoreOn(pm, probe); !ok {
			b.Fatal("lookup failed")
		}
	}
}

// BenchmarkPlaceLookup keeps the sub-benchmark name cmd/prvm-bench's
// zero-alloc check and BENCH.json key on.
func BenchmarkPlaceLookup(b *testing.B) {
	b.Run("fast", benchPlaceLookup)
}

// churnFixture is a production-catalog cluster in steady-state churn:
// filled with VMMix requests through Algorithm 2 until `used` PMs are
// in use, then aged by release+place pairs so the used list carries
// the fragmented profile population a long-running daemon sees (right
// after a pure fill almost no used PM fits anything). step is one more
// such pair — the op mix of the serve workloads' measured phase.
type churnFixture struct {
	cat      *experiments.Catalog
	names    []string
	mix      map[string]float64
	obs      *obs.Observer
	placer   *placement.PageRankVM
	cluster  *placement.Cluster
	rng      *rand.Rand
	resident []*placement.VM
	nextID   int
}

func newChurnFixture(tb testing.TB, used int) *churnFixture {
	tb.Helper()
	cat, err := experiments.AmazonCatalog()
	if err != nil {
		tb.Fatal(err)
	}
	reg, err := cat.BuildRegistry(ranktable.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	f := &churnFixture{cat: cat, mix: experiments.VMMix(), obs: obs.New(), rng: rand.New(rand.NewSource(1))}
	for name := range f.mix {
		f.names = append(f.names, name)
	}
	sort.Strings(f.names)
	f.placer = placement.NewPageRankVM(reg, placement.WithSeed(1), placement.WithObserver(f.obs))
	f.cluster = cat.BuildCluster(used)
	for f.cluster.NumUsed() < used {
		f.place(tb)
	}
	for i := 0; i < 2*used; i++ {
		f.step(tb)
	}
	return f
}

func (f *churnFixture) newVM(tb testing.TB) *placement.VM {
	vm, err := f.cat.NewVM(f.nextID, experiments.SampleVMType(f.mix, f.names, f.rng.Float64()))
	if err != nil {
		tb.Fatal(err)
	}
	f.nextID++
	return vm
}

func (f *churnFixture) place(tb testing.TB) {
	vm := f.newVM(tb)
	pm, assign, err := f.placer.Place(f.cluster, vm, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if err := f.cluster.Host(pm, vm, assign); err != nil {
		tb.Fatal(err)
	}
	f.resident = append(f.resident, vm)
}

func (f *churnFixture) step(tb testing.TB) {
	k := f.rng.Intn(len(f.resident))
	if _, err := f.cluster.Release(f.resident[k].ID); err != nil {
		tb.Fatal(err)
	}
	last := len(f.resident) - 1
	f.resident[k] = f.resident[last]
	f.resident = f.resident[:last]
	f.place(tb)
}

// hitRatio returns the memo hit share of the candidate evaluations
// since the counters read (hits0, misses0).
func (f *churnFixture) hitRatio(hits0, misses0 int64) float64 {
	hits := f.obs.Counter("placement.memo_hits").Value() - hits0
	misses := f.obs.Counter("placement.memo_misses").Value() - misses0
	return float64(hits) / float64(hits+misses)
}

// BenchmarkPlaceScan is the roadmap's "one full Place scan as a
// function of used-PM count" row: one churn step (release a random
// resident, Place + Host a fresh VMMix request) with `used` PMs in the
// used list, every one of which Algorithm 2 considers. ns/pm divides
// the step by the used-list length — visited or closed, so the number
// stays comparable across BENCH.json recordings — open/op is the mean
// length of the open list, which is what the scan visits, and hit% the
// share of the evaluations on it that the per-PM memo served (DESIGN.md
// §16).
func BenchmarkPlaceScan(b *testing.B) {
	for _, used := range []int{100, 1000, 10000} {
		// One aged cluster per size, kept across the b.N ramp-up
		// invocations (the 10 000-PM fill is ~80 000 full scans) and
		// dropped with the sub-benchmark so later benchmarks do not
		// pay for scanning it in their GC cycles.
		var f *churnFixture
		b.Run(fmt.Sprintf("used=%d", used), func(b *testing.B) {
			if f == nil {
				f = newChurnFixture(b, used)
			}
			hits0 := f.obs.Counter("placement.memo_hits").Value()
			misses0 := f.obs.Counter("placement.memo_misses").Value()
			scanned0 := f.obs.Counter("placement.pms_scanned").Value()
			usedPMs := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.step(b)
				usedPMs += f.cluster.NumUsed()
			}
			b.StopTimer()
			scanned := f.obs.Counter("placement.pms_scanned").Value() - scanned0
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(usedPMs), "ns/pm")
			b.ReportMetric(float64(scanned)/float64(b.N), "open/op")
			b.ReportMetric(100*f.hitRatio(hits0, misses0), "hit%")
		})
	}
}

// TestMemoHitRatioSteadyState pins the property the incremental scan
// depends on (DESIGN.md §16): between two scans for the same VM type
// only the handful of PMs that were mutated miss, so at steady-state
// churn on 1000 used PMs a Place re-evaluates at most 5 % of the used
// list (50 PMs; it reads 9.7). Up to the open list this was stated as a
// ratio — the memo serves >= 0.95 of candidate evaluations, reading
// 0.9905 — but the scan no longer visits closed PMs, every one of which
// was a hit: the same 9.7 misses per Place now stand against 175 hits
// instead of 1 016, and the ratio reads 0.9473 with nothing recomputed
// that was not before. Hence the same guarantee as a bound on misses.
func TestMemoHitRatioSteadyState(t *testing.T) {
	f := newChurnFixture(t, 1000)
	misses0 := f.obs.Counter("placement.memo_misses").Value()
	const steps = 2000
	for i := 0; i < steps; i++ {
		f.step(t)
	}
	used := f.cluster.NumUsed()
	if used < 900 {
		t.Fatalf("fixture drifted to %d used PMs, want ~1000", used)
	}
	perPlace := float64(f.obs.Counter("placement.memo_misses").Value()-misses0) / steps
	if perPlace > 0.05*float64(used) {
		t.Fatalf("%.1f memo misses per Place at steady-state churn on %d used PMs, want <= 5 %% of them", perPlace, used)
	}
}

// BenchmarkRecordOverhead measures one full Place decision against the
// production catalog with decision recording off and on. "off" is the
// acceptance bar: a disabled recorder must cost nothing measurable
// (one nil check) relative to the pre-recording hot path; "on" prices
// the candidate capture + JSONL encode for capacity planning. The
// ~25ns ScoreOn path itself carries no recording branch at all — see
// BenchmarkPlaceLookup for its unchanged numbers.
func BenchmarkRecordOverhead(b *testing.B) {
	run := func(b *testing.B, rec *record.Recorder) {
		b.Helper()
		cat, err := experiments.AmazonCatalog()
		if err != nil {
			b.Fatal(err)
		}
		reg, err := cat.BuildRegistry(ranktable.Options{})
		if err != nil {
			b.Fatal(err)
		}
		placer := placement.NewPageRankVM(reg,
			placement.WithSeed(1), placement.WithRecorder(rec))
		cluster := cat.BuildCluster(4)
		for id := 0; id < 6; id++ {
			vm, err := cat.NewVM(id, "m3.large")
			if err != nil {
				b.Fatal(err)
			}
			pm, assign, err := placer.Place(cluster, vm, nil)
			if err != nil {
				b.Fatal(err)
			}
			if err := cluster.Host(pm, vm, assign); err != nil {
				b.Fatal(err)
			}
		}
		probe, err := cat.NewVM(10_000, "c3.xlarge")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Place without Host: a pure decision, repeatable each
			// iteration against the same cluster state.
			if _, _, err := placer.Place(cluster, probe, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("on", func(b *testing.B) {
		rec, err := record.NewWriter(io.Discard, record.RunMeta{Kind: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		run(b, rec)
	})
}

// BenchmarkSpaceWire builds the heaviest production sub-lattice — the
// disk group, C(35,4) = 52360 nodes, under the six Table I VM types
// projected onto it (units 1; 4; 5,5; 10,10; 2,2; 5,5: m3.xlarge and
// c3.xlarge repeat a demand) — serially and with all cores. Each build
// releases its typed lists, as every production caller does once it
// has reduced them, so the pooled wiring chunks are reused.
func BenchmarkSpaceWire(b *testing.B) {
	cat, err := experiments.AmazonCatalog()
	if err != nil {
		b.Fatal(err)
	}
	m3, _ := cat.Shape("M3")
	gi := m3.GroupIndex(experiments.GroupDisk)
	shape := m3.SubShape(gi)
	var types []resource.VMType
	for _, vm := range cat.VMs {
		if d, ok := cat.Demand("M3", vm.Name); ok {
			if p, ok := d.Project(experiments.GroupDisk); ok {
				types = append(types, p)
			}
		}
	}
	run := func(b *testing.B, workers int) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := lattice.NewSpace(shape, types, lattice.Options{Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			if s.Edges() == 0 {
				b.Fatal("no edges wired")
			}
			s.Release()
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, 0) })
}

// BenchmarkTableCache prices the shape-keyed table cache: "hit" is the
// steady-state lookup of an already-built table (key assembly in a
// stack buffer + map probe + closed-channel receive; must be
// zero-alloc, see alloc_gate_test.go), "miss" is a cold build through
// the cache on a small lattice — the cost a heterogeneous fleet pays
// once per distinct (shape, VM types, options) key.
func BenchmarkTableCache(b *testing.B) {
	shape := resource.MustShape(resource.Group{Name: "cpu", Dims: 4, Cap: 4})
	types := []resource.VMType{
		resource.NewVMType("[1,1]", resource.Demand{Group: "cpu", Units: []int{1, 1}}),
		resource.NewVMType("[2]", resource.Demand{Group: "cpu", Units: []int{2}}),
	}
	b.Run("hit", func(b *testing.B) {
		c := ranktable.NewCache(0, nil)
		opts := ranktable.Options{Cache: c}
		if _, err := ranktable.NewJoint(shape, types, opts); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ranktable.NewJoint(shape, types, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			opts := ranktable.Options{Cache: ranktable.NewCache(0, nil)}
			if _, err := ranktable.NewJoint(shape, types, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRanksCSR times the PageRank iteration over the lattice's
// CSR arenas on the paper's example lattice scaled up.
func BenchmarkRanksCSR(b *testing.B) {
	shape := resource.MustShape(resource.Group{Name: "cpu", Dims: 6, Cap: 6})
	types := []resource.VMType{
		resource.NewVMType("[1,1]", resource.Demand{Group: "cpu", Units: []int{1, 1}}),
		resource.NewVMType("[2,2,2]", resource.Demand{Group: "cpu", Units: []int{2, 2, 2}}),
	}
	s, err := lattice.NewSpace(shape, types, lattice.Options{})
	if err != nil {
		b.Fatal(err)
	}
	g := pagerank.CSR{Offsets: s.SuccOffsets(), Edges: s.SuccArena()}
	b.Run("csr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pagerank.RanksCSR(g, pagerank.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
