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
// pointer chasing. Alongside the union graph the wire phase records
// per-VM-type labeled successor lists — each edge a successor id plus
// the dimension index every demanded unit landed on. They are
// build-time state: internal/ranktable reduces them to one winning
// move per (node, type), which is what turns Algorithm 2's candidate
// scoring into an O(1) table lookup, and then releases them (see
// DESIGN.md "Indexing & concurrency model").
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
// type set. Nodes, union CSR and the type set never change after New
// and are safe for concurrent readers; the typed lists are the one
// exception — their owner may drop them once with ReleaseTyped, before
// sharing the space.
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

	// Per-VM-type labeled successors, one typedList per demand class:
	// active types whose demands are equal unit for unit (classOf) are
	// enumerated once and share a list. nil when the lattice declines
	// them (see maxTypedEntries, maxTypedDims) and after ReleaseTyped.
	types   []resource.VMType // active types, in wiring order
	typeIdx map[string]int    // type name -> index of its first occurrence in types
	classOf []int32           // active type -> index into typed
	typed   []typedList
}

// typedList holds one demand class's labeled successors: from node i
// the reachable profiles are succ[off[i]:off[i+1]] in enumeration
// order, and edge e placed the demand's units — demands in order, units
// in order, as placeUnit walks them — on the canonical dimensions
// dims[e*stride:(e+1)*stride]. The unit amounts are the VM type's own,
// so a dimension index per unit is the whole representative assignment.
type typedList struct {
	stride int
	off    []int32 // n+1
	succ   []int32
	dims   []uint8
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
	stride  int   // dimension indices per placement: the demands' unit count
}

type demandPlan struct {
	units       []int // per-unit amounts (aliases the VMType, read-only)
	lo, hi, cap int
}

func buildTypePlans(shape *resource.Shape, classes []resource.VMType) []typePlan {
	plans := make([]typePlan, len(classes))
	for k, vt := range classes {
		p := &plans[k]
		p.stride = vt.NumUnits()
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

// wireBufs is one chunk's growable output plus the enumeration
// scratch, pooled across chunks and across builds: after warmup a
// build's only allocations are the final exact-size arenas.
type wireBufs struct {
	union typedBuf   // the union CSR's share, deduped per node; no dims
	typed []typedBuf // per demand class; a pooled buffer may hold more than the build has
	sc    wireScratch
}

// typedBuf is one chunk's share of a typedList: the edges in
// enumeration order, the out-degree per node in range, and stride
// dimension indices per edge.
type typedBuf struct {
	succ []int32
	cnt  []int32
	dims []uint8
}

func (tb *typedBuf) reset() { tb.succ, tb.cnt, tb.dims = tb.succ[:0], tb.cnt[:0], tb.dims[:0] }

// wireScratch backs the in-place placement enumeration. The recursion
// restores work/used/dims on every backtrack, so between nodes the
// scratch is all-zero/all-false by invariant and never needs clearing.
type wireScratch struct {
	work   []int
	dims   []uint8  // the dimension each unit placed so far landed on
	used   [][]bool // one flag array per demand index (demands may share a group)
	sorted []int
}

var wireBufPool = sync.Pool{New: func() any { return new(wireBufs) }}

func (b *wireBufs) reset(s *Space, plans []typePlan) {
	b.union.reset()
	for len(b.typed) < len(plans) {
		b.typed = append(b.typed, typedBuf{})
	}
	for k := range b.typed {
		b.typed[k].reset()
	}
	// Scratch as wide as the shape is wide enough for any group of it.
	sc := &b.sc
	if cap(sc.work) < s.dims {
		sc.work, sc.sorted = make([]int, s.dims), make([]int, s.dims)
	}
	sc.work, sc.sorted, sc.dims = sc.work[:s.dims], sc.sorted[:s.dims], sc.dims[:0]
	for i := range plans {
		for len(sc.used) < len(plans[i].demands) {
			sc.used = append(sc.used, nil)
		}
	}
	for i := range sc.used {
		if len(sc.used[i]) < s.dims {
			sc.used[i] = make([]bool, s.dims)
		}
	}
}

// wire computes the union CSR and one typed list per demand class.
// Chunks of the node range are wired in parallel under a work-stealing
// counter; each chunk writes only its own pooled buffers, so the hot
// path takes no locks and the stitched output is identical for every
// worker count.
func (s *Space) wire(classes []resource.VMType, workers int) {
	n, T := s.n, len(s.types)
	typed := T > 0 && n <= maxTypedEntries/T && s.dims <= maxTypedDims

	plans := buildTypePlans(s.shape, classes)

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

	union := stitch(n, 0, bufs, func(b *wireBufs) *typedBuf { return &b.union })
	s.succOff, s.succ = union.off, union.succ
	if typed {
		s.typed = make([]typedList, len(plans))
	}
	for k := range s.typed {
		s.typed[k] = stitch(n, plans[k].stride, bufs, func(b *wireBufs) *typedBuf { return &b.typed[k] })
	}
	for _, b := range bufs {
		wireBufPool.Put(b)
	}
}

// stitch joins the chunks' shares of one edge list: chunk order is node
// order, so the arenas concatenate and the offsets are running sums of
// the per-node counts. Sizes are known exactly, so every final arena is
// allocated once.
func stitch(n, stride int, bufs []*wireBufs, share func(*wireBufs) *typedBuf) typedList {
	total := 0
	for _, b := range bufs {
		total += len(share(b).succ)
	}
	tl := typedList{stride: stride, off: make([]int32, n+1), succ: make([]int32, total), dims: make([]uint8, total*stride)}
	pos, ni := 0, 0
	for _, b := range bufs {
		tb := share(b)
		copy(tl.succ[pos:], tb.succ)
		copy(tl.dims[pos*stride:], tb.dims)
		pos += len(tb.succ)
		for _, cnt := range tb.cnt {
			tl.off[ni+1] = tl.off[ni] + cnt
			ni++
		}
	}
	return tl
}

// wireCtx is the per-(node, class) enumeration state. It walks the
// order resource.Placements defines — same recursion, same first-seen
// dedup of canonical outcomes — but prunes subtrees that can only
// repeat outcomes (see placeUnit) and computes successor ids
// arithmetically from the mutated work profile instead of
// materializing result vectors and string keys.
type wireCtx struct {
	s      *Space
	b      *wireBufs
	p      *typePlan
	base   int       // node id minus the touched groups' rank contributions
	uStart int       // start of the current node's segment in b.union.succ
	tb     *typedBuf // the current class's typed output; nil when typed lists are declined
	tStart int       // start of the current node's segment in tb.succ
}

func (s *Space) wireRange(b *wireBufs, plans []typePlan, lo, hi int, typed bool) {
	b.reset(s, plans)
	c := wireCtx{s: s, b: b}
	for i := lo; i < hi; i++ {
		node := s.vals[i*s.dims : (i+1)*s.dims]
		c.uStart = len(b.union.succ)
		for k := range plans {
			p := &plans[k]
			if typed {
				c.tb = &b.typed[k]
				c.tStart = len(c.tb.succ)
			}
			copy(b.sc.work, node)
			base := i
			for _, gi := range p.touched {
				g := &s.rank.groups[gi]
				base -= ((i / g.radix) % g.count) * g.radix
			}
			c.p, c.base = p, base
			c.place(0)
			if typed {
				c.tb.cnt = append(c.tb.cnt, int32(len(c.tb.succ)-c.tStart))
			}
		}
		b.union.cnt = append(b.union.cnt, int32(len(b.union.succ)-c.uStart))
	}
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
	sc := &c.b.sc
	used, work := sc.used[di], sc.work
	tried := -1 // value of the last free dimension recursed into
	for dim := start; dim < d.hi; dim++ {
		if used[dim-d.lo] || work[dim]+u > d.cap || work[dim] == tried {
			continue
		}
		tried = work[dim]
		used[dim-d.lo] = true
		work[dim] += u
		sc.dims = append(sc.dims, uint8(dim))
		c.placeUnit(di, unitIdx+1, dim+1)
		sc.dims = sc.dims[:len(sc.dims)-1]
		work[dim] -= u
		used[dim-d.lo] = false
	}
}

// leaf ranks the successor profile and appends the edge unless its
// canonical outcome was already seen — per class for the typed list
// (first-seen representative, like resource.Placements) and per node
// for the union CSR. The pruning in placeUnit removes the duplicates
// symmetry explains; others remain (units 3,2,1 on values 0,1,2 reach
// 3,3,3 six ways).
func (c *wireCtx) leaf() {
	sc := &c.b.sc
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
	if tb := c.tb; tb != nil {
		for _, e := range tb.succ[c.tStart:] {
			if e == int32(id) {
				return
			}
		}
		tb.succ = append(tb.succ, int32(id))
		for _, dim := range sc.dims { // likewise
			tb.dims = append(tb.dims, dim)
		}
	}
	u := &c.b.union
	for _, e := range u.succ[c.uStart:] {
		if e == int32(id) {
			return
		}
	}
	u.succ = append(u.succ, int32(id))
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

// HasTyped reports whether the space holds typed successor lists: they
// are declined above maxTypedEntries and maxTypedDims, and gone after
// ReleaseTyped.
func (s *Space) HasTyped() bool { return s.typed != nil }

// ReleaseTyped drops the typed successor lists. They exist to be
// reduced once (ranktable keeps the winning move per node and type);
// the owner calls this before sharing the space with other goroutines.
func (s *Space) ReleaseTyped() { s.typed = nil }

// TypedSucc returns the successor ids reachable from node i by placing
// one VM of active type t, in enumeration order. The slice aliases the
// arena and must not be modified.
func (s *Space) TypedSucc(i, t int) []int32 {
	tl := &s.typed[s.classOf[t]]
	return tl.succ[tl.off[i]:tl.off[i+1]]
}

// TypedDims returns the representative anti-collocation assignments
// parallel to TypedSucc(i, t), flattened: edge k put the type's units —
// demands in order, units in order, NumUnits of them — on the
// dimensions at [k*NumUnits, (k+1)*NumUnits), in canonical coordinates
// (the node's profile is sorted within each group). Read-only.
func (s *Space) TypedDims(i, t int) []uint8 {
	tl := &s.typed[s.classOf[t]]
	return tl.dims[int(tl.off[i])*tl.stride : int(tl.off[i+1])*tl.stride]
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
