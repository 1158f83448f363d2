// Package lattice builds the profile graph of the paper's Algorithm 1:
// the nodes are every canonical resource-usage profile a PM shape can
// take (the full box lattice [0..cap]^dims, collapsed by within-group
// symmetry), and the edges connect a profile to the profiles obtained
// by accommodating one VM from the VM-type set, in any feasible
// permutation of its anti-collocated demands.
//
// Adding a VM strictly increases total used units, so the graph is a
// DAG layered by total usage.
//
// The successor graph is stored in CSR form (one offsets arena, one
// edge arena) so the PageRank/absorption iteration streams it without
// pointer chasing, and — alongside the union graph — the space keeps
// per-VM-type labeled successor lists with one representative
// anti-collocation assignment per edge. The labeled lists are what
// turn Algorithm 2's candidate scoring into an O(1) table lookup (see
// internal/ranktable and DESIGN.md "Indexing & concurrency model").
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
	"runtime"
	"sync"
	"sync/atomic"

	"pagerankvm/internal/resource"
)

// Space is the enumerated profile graph for one PM shape and one VM
// type set. It is immutable after New and safe for concurrent readers.
type Space struct {
	shape *resource.Shape
	rank  shapeRank
	dims  int
	n     int
	vals  []int // node arena: profile i is vals[i*dims : (i+1)*dims]

	// Union successor graph in CSR form: the successors of node i are
	// succ[succOff[i]:succOff[i+1]], deduped across VM types.
	succOff []int32 // n+1
	succ    []int32 // edge arena

	// Per-VM-type labeled successors: for node i and active type t the
	// reachable profiles are tSucc[tOff[i*T+t]:tOff[i*T+t+1]] in
	// enumeration order, with tAssign holding the representative
	// anti-collocation assignment (in canonical coordinates) of each.
	// nil when the lattice is too large (see maxTypedEntries).
	types   []resource.VMType // active types, in wiring order
	typeIdx map[string]int    // type name -> index into types
	tOff    []int32           // n*len(types)+1
	tSucc   []int32
	tAssign []resource.Assignment
	// assignUnits is the flat backing arena every tAssign slice points
	// into: edge assignments of one type all have the same length, so
	// the headers are reconstructed with fixed per-type strides.
	assignUnits []resource.DimUnits
}

// MaxNodes bounds the lattice size New is willing to enumerate. The
// joint lattice of a large PM type explodes combinatorially; callers
// should fall back to the factored ranker (see internal/ranktable)
// above this bound.
const MaxNodes = 4 << 20

// maxTypedEntries bounds the per-type labeled successor arenas: above
// len(nodes)*len(types) entries the typed lists (and their assignment
// arena) are skipped and only the union CSR is built, keeping memory
// proportional to the graph itself. Rankers then offer no precomputed
// moves and the placer enumerates resource.Placements per candidate.
const maxTypedEntries = 8 << 20

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
	// are stitched in node order, and each node's successor list
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
		touches := false
		for _, d := range vt.Demands {
			if shape.GroupIndex(d.Group) >= 0 && len(d.Units) > 0 {
				touches = true
				break
			}
		}
		if touches {
			active = append(active, vt)
		}
	}

	s := &Space{shape: shape, dims: shape.NumDims(), n: int(np)}
	s.rank = newShapeRank(shape)
	s.enumerate()
	s.wire(active, opts.Workers)
	return s, nil
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

// typePlan is the per-VM-type wiring plan shared read-only by every
// worker: demand ranges resolved against the shape, the distinct
// groups the type touches (only those contribute to the successor id
// delta), and the fixed assignment length of every placement.
type typePlan struct {
	demands []demandPlan
	touched []int // distinct group indices, in demand order
	stride  int   // assignment entries per placement: sum of unit counts
	dead    bool  // a demand names a group absent from the shape
}

type demandPlan struct {
	units       []int // per-unit amounts (aliases the VMType, read-only)
	lo, hi, cap int
}

func buildTypePlans(shape *resource.Shape, vmTypes []resource.VMType) []typePlan {
	plans := make([]typePlan, len(vmTypes))
	for t, vt := range vmTypes {
		p := &plans[t]
		for _, d := range vt.Demands {
			gi := shape.GroupIndex(d.Group)
			if gi < 0 {
				// NewSpace validated the type, so this only happens for
				// literal-constructed types fed to wire in tests; such a
				// demand makes every placement infeasible.
				*p = typePlan{dead: true}
				break
			}
			lo, hi := shape.GroupRange(gi)
			p.demands = append(p.demands, demandPlan{units: d.Units, lo: lo, hi: hi, cap: shape.Group(gi).Cap})
			known := false
			for _, k := range p.touched {
				if k == gi {
					known = true
					break
				}
			}
			if !known {
				p.touched = append(p.touched, gi)
			}
			p.stride += len(d.Units)
		}
	}
	return plans
}

// wireBufs is one chunk's growable output plus the enumeration
// scratch, pooled across chunks and across builds: after warmup a
// build's only allocations are the final exact-size arenas.
type wireBufs struct {
	succ    []int32 // union edges, deduped, per node in range
	succCnt []int32 // union out-degree per node in range
	tSucc   []int32 // typed edges (enumeration order) per (node, type)
	tCnt    []int32 // typed out-degree per (node, type)
	tUnits  []resource.DimUnits
	sc      wireScratch
}

// wireScratch backs the in-place placement enumeration. The recursion
// restores work/used/assign on every backtrack, so between nodes the
// scratch is all-zero/all-false by invariant and never needs clearing.
type wireScratch struct {
	work   []int
	assign []resource.DimUnits
	used   [][]bool // one flag array per demand index (demands may share a group)
	sorted []int
}

var wireBufPool = sync.Pool{New: func() any { return new(wireBufs) }}

func (b *wireBufs) reset(s *Space, plans []typePlan) {
	b.succ = b.succ[:0]
	b.succCnt = b.succCnt[:0]
	b.tSucc = b.tSucc[:0]
	b.tCnt = b.tCnt[:0]
	b.tUnits = b.tUnits[:0]

	maxDemands, maxStride := 0, 0
	for i := range plans {
		if n := len(plans[i].demands); n > maxDemands {
			maxDemands = n
		}
		if plans[i].stride > maxStride {
			maxStride = plans[i].stride
		}
	}
	maxGroup := 0
	for gi := range s.rank.groups {
		if d := s.rank.groups[gi].dims; d > maxGroup {
			maxGroup = d
		}
	}
	if cap(b.sc.work) < s.dims {
		b.sc.work = make([]int, s.dims)
	}
	b.sc.work = b.sc.work[:s.dims]
	if cap(b.sc.sorted) < maxGroup {
		b.sc.sorted = make([]int, maxGroup)
	}
	b.sc.sorted = b.sc.sorted[:maxGroup]
	if cap(b.sc.assign) < maxStride {
		b.sc.assign = make([]resource.DimUnits, 0, maxStride)
	}
	b.sc.assign = b.sc.assign[:0]
	for len(b.sc.used) < maxDemands {
		b.sc.used = append(b.sc.used, nil)
	}
	for i := 0; i < maxDemands; i++ {
		if len(b.sc.used[i]) < maxGroup {
			b.sc.used[i] = make([]bool, maxGroup)
		}
	}
}

// wire computes the union CSR and the per-type labeled successor
// arenas. Chunks of the node range are wired in parallel under a
// work-stealing counter; each chunk writes only its own pooled
// buffers, so the hot path takes no locks and the stitched output is
// identical for every worker count.
func (s *Space) wire(vmTypes []resource.VMType, workers int) {
	n := s.n
	s.types = vmTypes
	s.typeIdx = make(map[string]int, len(vmTypes))
	for t, vt := range vmTypes {
		s.typeIdx[vt.Name] = t
	}
	T := len(vmTypes)
	typed := T > 0 && n <= maxTypedEntries/T

	plans := buildTypePlans(s.shape, vmTypes)

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	nchunks := workers * chunksPerWorker
	if nchunks > n {
		nchunks = n
	}
	if nchunks < 1 {
		nchunks = 1
	}
	chunkSz := (n + nchunks - 1) / nchunks
	bufs := make([]*wireBufs, nchunks)

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ci := int(next.Add(1)) - 1
				if ci >= nchunks {
					return
				}
				lo := ci * chunkSz
				hi := lo + chunkSz
				if hi > n {
					hi = n
				}
				b := wireBufPool.Get().(*wireBufs)
				s.wireRange(b, plans, lo, hi, typed)
				bufs[ci] = b
			}
		}()
	}
	wg.Wait()

	// Stitch: chunk order is node order, so the arenas concatenate and
	// the offsets are running sums of the per-node counts. Sizes are
	// known exactly, so every final arena is allocated once.
	totalE, totalT, totalU := 0, 0, 0
	for _, b := range bufs {
		totalE += len(b.succ)
		totalT += len(b.tSucc)
		totalU += len(b.tUnits)
	}
	s.succOff = make([]int32, n+1)
	s.succ = make([]int32, totalE)
	if typed {
		s.tOff = make([]int32, n*T+1)
		s.tSucc = make([]int32, totalT)
		s.tAssign = make([]resource.Assignment, totalT)
		s.assignUnits = make([]resource.DimUnits, totalU)
	}
	ePos, ni, tPos, ti, uPos := 0, 0, 0, 0, 0
	for _, b := range bufs {
		copy(s.succ[ePos:], b.succ)
		ePos += len(b.succ)
		for _, cnt := range b.succCnt {
			s.succOff[ni+1] = s.succOff[ni] + cnt
			ni++
		}
		if typed {
			copy(s.tSucc[tPos:], b.tSucc)
			copy(s.assignUnits[uPos:], b.tUnits)
			for k, cnt := range b.tCnt {
				s.tOff[ti+1] = s.tOff[ti] + cnt
				ti++
				stride := plans[k%T].stride
				for e := int32(0); e < cnt; e++ {
					s.tAssign[tPos] = resource.Assignment(s.assignUnits[uPos : uPos+stride : uPos+stride])
					tPos++
					uPos += stride
				}
			}
		}
		wireBufPool.Put(b)
	}
}

// wireCtx is the per-(node, type) enumeration state. It mirrors
// resource.Placements exactly — same recursion order, same symmetric-
// duplicate pruning, same first-seen dedup of canonical outcomes — but
// computes successor ids arithmetically from the mutated work profile
// instead of materializing result vectors and string keys.
type wireCtx struct {
	s      *Space
	b      *wireBufs
	p      *typePlan
	base   int // node id minus the touched groups' rank contributions
	uStart int // start of the current node's union segment in b.succ
	tStart int // start of the current (node, type) segment in b.tSucc
	typed  bool
}

func (s *Space) wireRange(b *wireBufs, plans []typePlan, lo, hi int, typed bool) {
	b.reset(s, plans)
	c := wireCtx{s: s, b: b, typed: typed}
	for i := lo; i < hi; i++ {
		node := s.vals[i*s.dims : (i+1)*s.dims]
		c.uStart = len(b.succ)
		for t := range plans {
			p := &plans[t]
			c.tStart = len(b.tSucc)
			if !p.dead && len(p.demands) > 0 {
				copy(b.sc.work, node)
				base := i
				for _, gi := range p.touched {
					g := &s.rank.groups[gi]
					base -= ((i / g.radix) % g.count) * g.radix
				}
				c.p, c.base = p, base
				b.sc.assign = b.sc.assign[:0]
				c.place(0)
			}
			if typed {
				b.tCnt = append(b.tCnt, int32(len(b.tSucc)-c.tStart))
			}
		}
		b.succCnt = append(b.succCnt, int32(len(b.succ)-c.uStart))
	}
}

// place recurses over the type's demands; at the leaf every demand has
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
// indices to avoid enumerating symmetric duplicates.
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
	used := c.b.sc.used[di]
	work := c.b.sc.work
	for dim := start; dim < d.hi; dim++ {
		if used[dim-d.lo] || work[dim]+u > d.cap {
			continue
		}
		used[dim-d.lo] = true
		work[dim] += u
		c.b.sc.assign = append(c.b.sc.assign, resource.DimUnits{Dim: dim, Units: u})
		c.placeUnit(di, unitIdx+1, dim+1)
		c.b.sc.assign = c.b.sc.assign[:len(c.b.sc.assign)-1]
		work[dim] -= u
		used[dim-d.lo] = false
	}
}

// leaf ranks the successor profile and appends the edge unless its
// canonical outcome was already seen — per type for the labeled list
// (first-seen representative assignment, like resource.Placements) and
// per node for the union CSR.
func (c *wireCtx) leaf() {
	sc := &c.b.sc
	id := c.base
	for _, gi := range c.p.touched {
		g := &c.s.rank.groups[gi]
		sg := sc.sorted[:g.dims]
		copy(sg, sc.work[g.lo:g.hi])
		insertionSort(sg)
		id += g.rankSorted(sg) * g.radix
	}
	b := c.b
	if c.typed {
		for _, e := range b.tSucc[c.tStart:] {
			if e == int32(id) {
				return
			}
		}
		b.tSucc = append(b.tSucc, int32(id))
		b.tUnits = append(b.tUnits, sc.assign...)
	}
	for _, e := range b.succ[c.uStart:] {
		if e == int32(id) {
			return
		}
	}
	b.succ = append(b.succ, int32(id))
}

// Shape returns the PM shape of the space.
func (s *Space) Shape() *resource.Shape { return s.shape }

// Len returns the number of canonical profiles.
func (s *Space) Len() int { return s.n }

// Edges returns the total number of edges in the union graph.
func (s *Space) Edges() int { return len(s.succ) }

// Node returns the canonical profile with id i. The returned vector
// aliases the node arena and must not be modified.
func (s *Space) Node(i int) resource.Vec {
	return resource.Vec(s.vals[i*s.dims : (i+1)*s.dims : (i+1)*s.dims])
}

// Succ returns the successor node ids of node i. The returned slice
// aliases the CSR arena and must not be modified.
func (s *Space) Succ(i int) []int32 { return s.succ[s.succOff[i]:s.succOff[i+1]] }

// SuccOffsets returns the CSR offsets arena (length Len()+1). Read-only.
func (s *Space) SuccOffsets() []int32 { return s.succOff }

// SuccArena returns the CSR edge arena. Read-only.
func (s *Space) SuccArena() []int32 { return s.succ }

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

// HasTyped reports whether the per-type labeled successor arenas were
// built (they are skipped above maxTypedEntries).
func (s *Space) HasTyped() bool { return s.tOff != nil }

// TypedSucc returns the successor ids reachable from node i by placing
// one VM of active type t, in enumeration order. The slice aliases the
// arena and must not be modified.
func (s *Space) TypedSucc(i, t int) []int32 {
	k := i*len(s.types) + t
	return s.tSucc[s.tOff[k]:s.tOff[k+1]]
}

// TypedAssign returns the representative anti-collocation assignments
// parallel to TypedSucc(i, t). Assignments are in canonical
// coordinates (the node's profile is sorted within each group) and
// must not be modified.
func (s *Space) TypedAssign(i, t int) []resource.Assignment {
	k := i*len(s.types) + t
	return s.tAssign[s.tOff[k]:s.tOff[k+1]]
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
// node id.
func (s *Space) Utils() []float64 {
	out := make([]float64, s.n)
	for i := 0; i < s.n; i++ {
		out[i] = s.shape.Util(s.Node(i))
	}
	return out
}

// Terminals returns the ids of nodes with no outgoing edges (profiles
// that cannot accommodate any VM from the set).
func (s *Space) Terminals() []int {
	var out []int
	for i := 0; i < s.n; i++ {
		if s.succOff[i] == s.succOff[i+1] {
			out = append(out, i)
		}
	}
	return out
}
