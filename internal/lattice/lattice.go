// Package lattice builds the profile graph of the paper's Algorithm 1:
// the nodes are every canonical resource-usage profile a PM shape can
// take (the full box lattice [0..cap]^dims, collapsed by within-group
// symmetry), and the edges connect a profile to the profiles obtained
// by accommodating one VM from the VM-type set, in any feasible
// permutation of its anti-collocated demands.
//
// Node ids are lexicographic ranks and a successor is element-wise at
// least its parent in every group, so every edge points to a higher
// id: id order is a topological order of the DAG.
//
// The successor graph is stored in CSR form (one offsets arena, one
// edge arena) so the PageRank/absorption iteration streams it without
// pointer chasing. Alongside the union graph the wire phase records
// per-demand-class labeled successor lists — each edge a successor id
// plus the dimension index every demanded unit landed on. They are
// build-time state, kept in the wiring chunks: internal/ranktable
// reduces them chunk-parallel (VisitTyped) to one winning move per
// (node, type), which turns Algorithm 2's candidate scoring into an
// O(1) table lookup. Once ranked and reduced, the owner calls Release,
// which frees the typed lists, the union CSR and the node arena: what
// is left indexes profiles by arithmetic and decodes them back from
// their ids (see DESIGN.md §9).
//
// Construction is arena-backed (DESIGN.md §13): node profiles live in
// one flat int arena, node ids are computed arithmetically from the
// per-group ranking tables in rank.go (no string keys, no index map),
// and the wire phase enumerates placements in place with pooled
// scratch — per-build allocations are a handful of exact-size arenas
// instead of one per node/edge/placement.
package lattice

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"pagerankvm/internal/resource"
)

// Space is the enumerated profile graph for one PM shape and one VM
// type set. A fresh space holds the build-time state — node arena,
// union CSR and typed lists — which its owner ranks and reduces, then
// drops once with Release before sharing the space. Everything else
// (Len, Edges, Index, Node and the type accessors) never changes after
// New and is safe for concurrent readers, before and after Release.
type Space struct {
	shape *resource.Shape
	rank  shapeRank
	dims  int
	n     int
	edges int   // len(succ), kept past Release
	vals  []int // node arena: profile i is vals[i*dims : (i+1)*dims]

	// Union successor graph in CSR form: the successors of node i are
	// succ[succOff[i]:succOff[i+1]], deduped across VM types.
	succOff []int32 // n+1
	succ    []int32 // edge arena

	released bool // Release dropped vals, the CSR and the chunks

	// Types whose demands are equal unit for unit form one demand class
	// (classOf), enumerated once; stride[k] is class k's unit count.
	types   []resource.VMType // active types, in wiring order
	typeIdx map[string]int    // type name -> index of its first occurrence in types
	classOf []int32           // active type -> demand class
	stride  []int             // per demand class

	// The wiring chunks in node order, holding the typed lists; nil when
	// the lattice declines them (see maxTypedEntries, maxTypedDims) and
	// after Release. VisitTyped reuses the wire's worker count.
	chunks  []*wireChunk
	workers int
}

// MaxNodes bounds the lattice size New is willing to enumerate. The
// joint lattice of a large PM type explodes combinatorially; callers
// should fall back to the factored ranker (see internal/ranktable)
// above this bound.
const MaxNodes = 4 << 20

// maxTypedEntries bounds the per-type labeled successor lists: above
// len(nodes)*len(types) entries they are skipped and only the union CSR
// is built, keeping memory proportional to the graph itself. Rankers
// then offer no precomputed moves and the placer enumerates
// resource.Placements per candidate. maxTypedDims declines them the
// same way for a shape whose dimension indices do not fit a byte.
const (
	maxTypedEntries = 8 << 20
	maxTypedDims    = 1 << 8
)

// chunksPerWorker oversubscribes the wire phase: low-usage nodes have
// far more feasible placements than nearly-full ones, so equal node
// ranges are unequal work. Several chunks per worker let fast workers
// steal the tail instead of idling behind the heaviest range.
const chunksPerWorker = 8

// Options tunes lattice construction.
type Options struct {
	// Workers caps the number of goroutines wiring successor edges.
	// Zero selects GOMAXPROCS. The output is deterministic for any
	// worker count: chunks cover disjoint, contiguous node ranges and
	// are read back in node order, and each node's successor list
	// depends only on the node itself.
	Workers int
}

// New enumerates the canonical profile lattice of shape and wires the
// successor edges induced by the VM types, using the default Options.
func New(shape *resource.Shape, vmTypes []resource.VMType) (*Space, error) {
	return NewSpace(shape, vmTypes, Options{})
}

// NewSpace is New with explicit Options. Every VM type must validate
// against the shape. Types with no demand on any of the shape's groups
// are skipped (they would only contribute self-loops).
func NewSpace(shape *resource.Shape, vmTypes []resource.VMType, opts Options) (*Space, error) {
	np := shape.NumProfiles()
	if np < 0 || np > MaxNodes {
		return nil, fmt.Errorf("lattice: profile space has %d canonical nodes, above limit %d (use the factored ranker)", np, MaxNodes)
	}
	var active []resource.VMType
	for _, vt := range vmTypes {
		if err := vt.Validate(shape); err != nil {
			return nil, err
		}
		if vt.NumUnits() > 0 {
			active = append(active, vt)
		}
	}

	s := &Space{shape: shape, dims: shape.NumDims(), n: int(np)}
	classes, err := s.classify(active)
	if err != nil {
		return nil, err
	}
	s.rank = newShapeRank(shape)
	s.enumerate()
	s.wire(classes, opts.Workers)
	return s, nil
}

// classify registers the active types and sorts them into demand
// classes: types whose demands are equal unit for unit wire identical
// typed lists, so one representative per class — the return value — is
// enumerated and the rest share its list. Two types sharing a name must
// be such repeats: rankers resolve a VM type by name, and would serve
// one type's moves for the other's demand.
func (s *Space) classify(active []resource.VMType) ([]resource.VMType, error) {
	s.types = active
	s.typeIdx = make(map[string]int, len(active))
	s.classOf = make([]int32, len(active))
	var classes []resource.VMType
	for t, vt := range active {
		if u, dup := s.typeIdx[vt.Name]; !dup {
			s.typeIdx[vt.Name] = t
		} else if !active[u].SameDemands(vt) {
			return nil, fmt.Errorf("lattice: vm type name given with two different demands: %v and %v", active[u], vt)
		}
		c := 0
		for c < len(classes) && !classes[c].SameDemands(vt) {
			c++
		}
		if c == len(classes) {
			classes = append(classes, vt)
			s.stride = append(s.stride, vt.NumUnits())
		}
		s.classOf[t] = int32(c)
	}
	return classes, nil
}

// enumerate writes all canonical profiles (non-decreasing within each
// group) into the node arena in lexicographic order; node ids are
// lexicographic ranks, which is exactly what the rank.go tables
// compute. Generation is an odometer: increment the last incrementable
// dimension, raise the rest of its group to the new value, zero all
// later groups.
func (s *Space) enumerate() {
	dims, n := s.dims, s.n
	s.vals = make([]int, n*dims)
	dimEnd := make([]int, dims) // end of the dimension's group
	dimCap := make([]int, dims)
	for gi := range s.rank.groups {
		g := &s.rank.groups[gi]
		for d := g.lo; d < g.hi; d++ {
			dimEnd[d] = g.hi
			dimCap[d] = g.capU
		}
	}
	prev := s.vals[:dims] // node 0 is all-zero
	for i := 1; i < n; i++ {
		cur := s.vals[i*dims : (i+1)*dims]
		copy(cur, prev)
		for d := dims - 1; d >= 0; d-- {
			if cur[d] < dimCap[d] {
				cur[d]++
				v := cur[d]
				for e := d + 1; e < dimEnd[d]; e++ {
					cur[e] = v
				}
				for e := dimEnd[d]; e < dims; e++ {
					cur[e] = 0
				}
				break
			}
		}
		prev = cur
	}
}

// typePlan is the per-demand-class wiring plan shared read-only by
// every worker: demand ranges resolved against the shape, the distinct
// groups the class touches (only those contribute to the successor id
// delta), and the fixed number of units every placement assigns.
type typePlan struct {
	demands []demandPlan
	touched []int // distinct group indices, in demand order
}

type demandPlan struct {
	units       []int // per-unit amounts (aliases the VMType, read-only)
	lo, hi, cap int
}

func buildTypePlans(shape *resource.Shape, classes []resource.VMType) []typePlan {
	plans := make([]typePlan, len(classes))
	for k, vt := range classes {
		p := &plans[k]
		for _, d := range vt.Demands {
			gi := shape.GroupIndex(d.Group) // NewSpace validated the type: never -1
			lo, hi := shape.GroupRange(gi)
			p.demands = append(p.demands, demandPlan{units: d.Units, lo: lo, hi: hi, cap: shape.Group(gi).Cap})
			known := false
			for _, g := range p.touched {
				if g == gi {
					known = true
					break
				}
			}
			if !known {
				p.touched = append(p.touched, gi)
			}
		}
	}
	return plans
}

// wireChunk is one contiguous node range's wiring output, pooled
// across builds: its share of the union CSR (copied into the space's
// arenas) and of every class's typed list (kept until Release).
type wireChunk struct {
	lo, hi int
	union  edgeBuf   // deduped per node; no dims
	typed  []edgeBuf // per demand class; a pooled chunk may hold more than the build has
}

// edgeBuf is one chunk's share of an edge list: the edges in
// enumeration order, the out-degree per node in range, and the class's
// stride dimension indices per edge.
type edgeBuf struct {
	succ []int32
	cnt  []int32
	dims []uint8
}

func (eb *edgeBuf) reset() { eb.succ, eb.cnt, eb.dims = eb.succ[:0], eb.cnt[:0], eb.dims[:0] }

func (ch *wireChunk) reset(lo, hi, classes int) {
	ch.lo, ch.hi = lo, hi
	ch.union.reset()
	for len(ch.typed) < classes {
		ch.typed = append(ch.typed, edgeBuf{})
	}
	for k := range ch.typed {
		ch.typed[k].reset()
	}
}

// wireScratch is one worker's enumeration state, pooled across builds.
// The recursion restores work and used on every backtrack, so they
// never need clearing. Small arrays take whole 64-byte lines, which the
// allocator places line-aligned: two workers' hot scratch sharing a
// line made the parallel wire slower than the serial one.
//
// seenU[id] (seenT[id]) equals the current union (typed) segment's
// stamp once id is in it. Every segment takes a fresh stamp from tick,
// which only grows, so stale entries from earlier nodes, chunks or
// builds are below it; the arrays are cleared only near the wrap.
type wireScratch struct {
	work         []int
	used         [][]bool // one flag array per demand index (demands may share a group)
	sorted       []int
	digit        []int   // the current node id's mixed-radix digit per group
	unitDims     []uint8 // backs wireCtx.dims
	seenU, seenT []uint32
	tick         uint32
}

var (
	wireChunkPool   = sync.Pool{New: func() any { return new(wireChunk) }}
	wireScratchPool = sync.Pool{New: func() any { return new(wireScratch) }}
)

func (sc *wireScratch) reset(s *Space, plans []typePlan) {
	// Scratch as wide as the shape is wide enough for any group of it.
	if cap(sc.work) < s.dims {
		sc.work, sc.sorted = lineInts(s.dims), lineInts(s.dims)
	}
	sc.work, sc.sorted = sc.work[:s.dims], sc.sorted[:s.dims]
	if cap(sc.digit) < len(s.rank.groups) {
		sc.digit = lineInts(len(s.rank.groups))
	}
	sc.digit = sc.digit[:len(s.rank.groups)]
	if sc.unitDims == nil {
		sc.unitDims = make([]uint8, maxTypedDims)
	}
	for i := range plans {
		for len(sc.used) < len(plans[i].demands) {
			sc.used = append(sc.used, nil)
		}
	}
	for i := range sc.used {
		if len(sc.used[i]) < s.dims {
			sc.used[i] = make([]bool, (s.dims+63)&^63)
		}
	}
	if len(sc.seenU) < s.n {
		sc.seenU, sc.seenT = make([]uint32, s.n), make([]uint32, s.n)
	}
}

// lineInts returns n ints in an allocation of whole 64-byte lines.
func lineInts(n int) []int { return make([]int, (n+7)&^7)[:n] }

// parallelChunks calls fn(w, ci) for every chunk index ci in
// [0, nchunks) on workers goroutines, w being the calling worker's
// index. Chunks are handed out by a shared counter, so fast workers
// steal the tail.
func parallelChunks(workers, nchunks int, fn func(w, ci int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				ci := int(next.Add(1)) - 1
				if ci >= nchunks {
					return
				}
				fn(w, ci)
			}
		}(w)
	}
	wg.Wait()
}

// wire computes the union CSR and one typed list per demand class.
// Chunks of the node range are wired in parallel under a work-stealing
// counter; each chunk writes only its own pooled buffers and each
// worker only its own scratch, so the hot path takes no locks and the
// output is identical for every worker count.
func (s *Space) wire(classes []resource.VMType, workers int) {
	n, T := s.n, len(s.types)
	typed := T > 0 && n <= maxTypedEntries/T && s.dims <= maxTypedDims

	plans := buildTypePlans(s.shape, classes)

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, n))
	nchunks := max(1, min(workers*chunksPerWorker, n))
	chunkSz := (n + nchunks - 1) / nchunks
	chunks := make([]*wireChunk, nchunks)
	scratch := make([]*wireScratch, workers)
	for w := range scratch {
		scratch[w] = wireScratchPool.Get().(*wireScratch)
		scratch[w].reset(s, plans)
	}
	parallelChunks(workers, nchunks, func(w, ci int) {
		ch := wireChunkPool.Get().(*wireChunk)
		ch.reset(min(ci*chunkSz, n), min((ci+1)*chunkSz, n), len(plans))
		s.wireRange(ch, scratch[w], plans, typed)
		chunks[ci] = ch
	})
	for _, sc := range scratch {
		wireScratchPool.Put(sc)
	}

	// Chunk order is node order: the union shares concatenate and the
	// offsets are running sums of the per-node counts.
	total := 0
	for _, ch := range chunks {
		total += len(ch.union.succ)
	}
	s.succOff, s.succ = make([]int32, n+1), make([]int32, 0, total)
	ni := 0
	for _, ch := range chunks {
		s.succ = append(s.succ, ch.union.succ...)
		for _, cnt := range ch.union.cnt {
			s.succOff[ni+1] = s.succOff[ni] + cnt
			ni++
		}
	}
	s.edges, s.workers, s.chunks = total, workers, chunks
	if !typed {
		s.releaseChunks()
	}
}

// wireCtx is the per-(node, class) enumeration state. It walks the
// order resource.Placements defines — same recursion, same first-seen
// dedup of canonical outcomes — but prunes subtrees that can only
// repeat outcomes (see placeUnit) and computes successor ids
// arithmetically from the mutated work profile instead of
// materializing result vectors and string keys.
// The slices the leaves append to live here, on the worker's stack,
// and are written back per node: a heap word rewritten per leaf could
// share a cache line with another worker's.
type wireCtx struct {
	s      *Space
	sc     *wireScratch
	p      *typePlan
	base   int     // node id minus the touched groups' rank contributions
	typed  bool    // false when typed lists are declined
	dims   []uint8 // the dimension each unit placed so far landed on
	usucc  []int32 // the chunk's union edges
	tsucc  []int32 // the current class's typed edges
	tdims  []uint8 // and their dimensions
	uStamp uint32  // the current node's union dedup stamp
	tStamp uint32  // the current (node, class) typed dedup stamp
}

// wireRange wires the chunk's node range with one worker's scratch.
func (s *Space) wireRange(ch *wireChunk, sc *wireScratch, plans []typePlan, typed bool) {
	// Every node takes one stamp, plus one per class when typed. Near
	// the wrap the stamp arrays are cleared instead, so a stamp is
	// never reused while an entry might still hold it.
	if need := uint64(ch.hi-ch.lo) * uint64(len(plans)+1); uint64(sc.tick)+need > math.MaxUint32 {
		clear(sc.seenU)
		clear(sc.seenT)
		sc.tick = 0
	}
	groups := s.rank.groups
	for gi := range groups {
		sc.digit[gi] = (ch.lo / groups[gi].radix) % groups[gi].count
	}
	c := wireCtx{s: s, sc: sc, typed: typed, dims: sc.unitDims[:0], usucc: ch.union.succ}
	tick := sc.tick
	for i := ch.lo; i < ch.hi; i++ {
		copy(sc.work, s.row(i))
		tick++
		c.uStamp = tick
		uStart := len(c.usucc)
		for k := range plans {
			p := &plans[k]
			tb := &ch.typed[k]
			if typed {
				c.tsucc, c.tdims = tb.succ, tb.dims
				tick++
				c.tStamp = tick
			}
			base := i
			for _, gi := range p.touched {
				base -= sc.digit[gi] * groups[gi].radix
			}
			c.p, c.base = p, base
			c.place(0)
			if typed {
				tb.cnt = append(tb.cnt, int32(len(c.tsucc)-len(tb.succ)))
				tb.succ, tb.dims = c.tsucc, c.tdims
			}
		}
		ch.union.cnt = append(ch.union.cnt, int32(len(c.usucc)-uStart))
		// Node ids are mixed-radix numbers over the groups' counts:
		// step the digits to node i+1 like an odometer.
		for gi := len(groups) - 1; gi >= 0; gi-- {
			if sc.digit[gi]++; sc.digit[gi] < groups[gi].count {
				break
			}
			sc.digit[gi] = 0
		}
	}
	ch.union.succ, sc.tick = c.usucc, tick
}

// place recurses over the class's demands; at the leaf every demand has
// been assigned and work holds the (non-canonical) successor profile.
func (c *wireCtx) place(di int) {
	if di == len(c.p.demands) {
		c.leaf()
		return
	}
	c.placeUnit(di, 0, c.p.demands[di].lo)
}

// placeUnit places unit unitIdx of demand di on a distinct dimension
// of the demand's group. Units are sorted descending (NewVMType);
// identical consecutive units are forced onto increasing dimension
// indices to avoid enumerating symmetric duplicates. A free dimension
// holding the same value as the one tried before it is skipped too:
// swapping the two in any completion gives a placement the earlier
// dimension's subtree already enumerated, with the same canonical
// outcome, so everything below it would be dropped by leaf's dedup —
// list order and first-seen representatives are exactly those of
// resource.Placements (DESIGN.md §9).
func (c *wireCtx) placeUnit(di, unitIdx, minDim int) {
	d := &c.p.demands[di]
	if unitIdx == len(d.units) {
		c.place(di + 1)
		return
	}
	u := d.units[unitIdx]
	start := d.lo
	if unitIdx > 0 && d.units[unitIdx-1] == u {
		start = minDim
	}
	sc := c.sc
	used, work := sc.used[di], sc.work
	tried := -1 // value of the last free dimension recursed into
	for dim := start; dim < d.hi; dim++ {
		if used[dim-d.lo] || work[dim]+u > d.cap || work[dim] == tried {
			continue
		}
		tried = work[dim]
		used[dim-d.lo] = true
		work[dim] += u
		c.dims = append(c.dims, uint8(dim))
		c.placeUnit(di, unitIdx+1, dim+1)
		c.dims = c.dims[:len(c.dims)-1]
		work[dim] -= u
		used[dim-d.lo] = false
	}
}

// leaf ranks the successor profile and appends the edge unless its
// canonical outcome was already seen — per class for the typed list
// (first-seen representative, like resource.Placements) and per node
// for the union CSR; the stamps make each check one array read. The
// pruning in placeUnit removes the duplicates symmetry explains; others
// remain (units 3,2,1 on values 0,1,2 reach 3,3,3 six ways).
func (c *wireCtx) leaf() {
	sc := c.sc
	id := c.base
	for _, gi := range c.p.touched {
		g := &c.s.rank.groups[gi]
		sg := sc.sorted[:g.dims]
		for k, v := range sc.work[g.lo:g.hi] { // a few values: a memmove call costs more than the loop
			sg[k] = v
		}
		insertionSort(sg)
		id += g.rankSorted(sg) * g.radix
	}
	if c.typed {
		if sc.seenT[id] == c.tStamp {
			return
		}
		sc.seenT[id] = c.tStamp
		c.tsucc = append(c.tsucc, int32(id))
		for _, dim := range c.dims { // likewise
			c.tdims = append(c.tdims, dim)
		}
	}
	if sc.seenU[id] == c.uStamp {
		return
	}
	sc.seenU[id] = c.uStamp
	c.usucc = append(c.usucc, int32(id))
}

// Shape returns the PM shape of the space.
func (s *Space) Shape() *resource.Shape { return s.shape }

// Len returns the number of canonical profiles.
func (s *Space) Len() int { return s.n }

// Edges returns the total number of edges in the union graph; the
// count outlives Release.
func (s *Space) Edges() int { return s.edges }

// Node returns the canonical profile with id i, decoded from the id by
// the rank tables (the inverse of Index on canonical profiles). The
// vector is fresh and belongs to the caller.
func (s *Space) Node(i int) resource.Vec {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("lattice: Node(%d) outside [0, %d)", i, s.n))
	}
	v := make(resource.Vec, s.dims)
	for gi := range s.rank.groups {
		g := &s.rank.groups[gi]
		g.unrank(i/g.radix%g.count, v[g.lo:g.hi])
	}
	return v
}

// row is node i's profile in the arena, aliased: build-time only.
func (s *Space) row(i int) []int { return s.vals[i*s.dims : (i+1)*s.dims] }

// buildOnly panics when Release already dropped the state method reads.
func (s *Space) buildOnly(method string) {
	if s.released {
		panic("lattice: Space." + method + " after Release: it reads build-time state that Release dropped")
	}
}

// Succ returns the successor node ids of node i. The returned slice
// aliases the CSR arena and must not be modified. Build-only: it panics
// after Release.
func (s *Space) Succ(i int) []int32 {
	s.buildOnly("Succ")
	return s.succ[s.succOff[i]:s.succOff[i+1]]
}

// SuccOffsets returns the CSR offsets arena (length Len()+1). Read-only
// and build-only: it panics after Release.
func (s *Space) SuccOffsets() []int32 {
	s.buildOnly("SuccOffsets")
	return s.succOff
}

// SuccArena returns the CSR edge arena. Read-only and build-only: it
// panics after Release.
func (s *Space) SuccArena() []int32 {
	s.buildOnly("SuccArena")
	return s.succ
}

// NumTypes returns the number of active (wired) VM types.
func (s *Space) NumTypes() int { return len(s.types) }

// TypeAt returns the active VM type with index t.
func (s *Space) TypeAt(t int) resource.VMType { return s.types[t] }

// TypeIndex returns the index of the named active VM type, or -1.
func (s *Space) TypeIndex(name string) int {
	if t, ok := s.typeIdx[name]; ok {
		return t
	}
	return -1
}

// HasTyped reports whether the space holds typed successor lists: they
// are declined above maxTypedEntries and maxTypedDims, and gone after
// Release.
func (s *Space) HasTyped() bool { return s.chunks != nil }

// Release drops the build-time state once the space has been ranked and
// its typed lists reduced (ranktable keeps the scores and the winning
// move per node and type): the wiring chunks go back to the pool, and
// the union CSR and the node arena are freed. Len, Edges, Index, Node
// and the type accessors keep working; Succ, SuccOffsets, SuccArena,
// Terminals, Utils and VisitTyped panic. The owner calls it once,
// before sharing the space with other goroutines.
func (s *Space) Release() {
	s.releaseChunks()
	s.vals, s.succOff, s.succ = nil, nil, nil
	s.released = true
}

func (s *Space) releaseChunks() {
	for _, ch := range s.chunks {
		wireChunkPool.Put(ch)
	}
	s.chunks = nil
}

// TypeClass returns the demand class of active type t. Types of one
// class demand the same units and share one typed list.
func (s *Space) TypeClass(t int) int { return int(s.classOf[t]) }

// VisitTyped calls fn once per node i and demand class k with the
// class's typed successors of i, in enumeration order, and the
// representative assignment of each: edge e put the class's units —
// demands in order, units in order, NumUnits of them — on the
// dimensions dims[e*NumUnits : (e+1)*NumUnits], in canonical
// coordinates (the node's profile is sorted within each group). The
// wiring chunks are visited concurrently, by as many workers as wired
// them, so fn must write only state owned by node i. The slices alias
// pooled buffers: read-only, and valid only during the call. It does
// nothing when the lattice declined typed lists. Build-only: it panics
// after Release.
func (s *Space) VisitTyped(fn func(i, k int, succ []int32, dims []uint8)) {
	s.buildOnly("VisitTyped")
	parallelChunks(s.workers, len(s.chunks), func(_, ci int) {
		ch := s.chunks[ci]
		for k, stride := range s.stride {
			eb := &ch.typed[k]
			pos := 0
			for j, cnt := range eb.cnt {
				end := pos + int(cnt)
				fn(ch.lo+j, k, eb.succ[pos:end:end], eb.dims[pos*stride:end*stride:end*stride])
				pos = end
			}
		}
	})
}

// Index returns the node id of a (not necessarily canonical) profile,
// or -1 when the profile is not in the lattice. The lookup is
// arithmetic — sort each group into a stack buffer and rank it — so it
// does not allocate for shapes with groups of at most 64 dimensions.
//
//prvm:hotpath
func (s *Space) Index(v resource.Vec) int {
	if len(v) != s.dims {
		return -1
	}
	var stack [64]int
	id := 0
	for gi := range s.rank.groups {
		g := &s.rank.groups[gi]
		sg := stack[:]
		if g.dims > len(stack) {
			sg = make([]int, g.dims) //prvmlint:allow hotalloc — cold fallback for >64-dim groups
		}
		sg = sg[:g.dims]
		copy(sg, v[g.lo:g.hi])
		insertionSort(sg)
		if sg[0] < 0 || sg[g.dims-1] > g.capU {
			return -1
		}
		id += g.rankSorted(sg) * g.radix
	}
	return id
}

// Utils returns the aggregate utilization of every node, indexed by
// node id. Build-only: it panics after Release.
func (s *Space) Utils() []float64 {
	s.buildOnly("Utils")
	out := make([]float64, s.n)
	for i := 0; i < s.n; i++ {
		out[i] = s.shape.Util(s.row(i))
	}
	return out
}

// Terminals returns the ids of nodes with no outgoing edges (profiles
// that cannot accommodate any VM from the set). Build-only: it panics
// after Release.
func (s *Space) Terminals() []int {
	s.buildOnly("Terminals")
	var out []int
	for i := 0; i < s.n; i++ {
		if s.succOff[i] == s.succOff[i+1] {
			out = append(out, i)
		}
	}
	return out
}
