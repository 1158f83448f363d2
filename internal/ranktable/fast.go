package ranktable

import "pagerankvm/internal/resource"

// TypeRef is an opaque, ranker-specific handle for a VM type resolved
// by ResolveType. It is only meaningful with the ranker that issued it.
type TypeRef struct{ id int32 }

// Index returns the handle's dense VM-type id, in [0, NumTypes()) of the
// ranker that issued it — an array index for per-type side tables.
func (r TypeRef) Index() int { return int(r.id) }

// FastRanker is the integer-indexed scoring interface Algorithm 2's hot
// loop uses. Instead of enumerating resource.Placements and hashing
// canonical profile keys per candidate PM, the placer resolves each
// PM's profile to lattice node ids once (cached until the PM mutates,
// see placement.PM) and each VM type to a TypeRef once per batch; a
// candidate's best accommodation is then a single precomputed-table
// read.
//
// All methods are safe for concurrent readers and allocation-free on
// the hit path. Fast reports whether precomputed moves exist at all —
// lattices too large for typed successor lists have none — and
// ResolveType whether they exist for one VM type; where they do not,
// callers enumerate resource.Placements and call Score, which is
// exactly equivalent.
type FastRanker interface {
	Ranker
	// Fast reports whether the id-indexed methods below are usable.
	Fast() bool
	// NodeIDs resolves a (not necessarily canonical) profile to the
	// ranker's node ids, appending to dst[:0]. One id for a joint
	// table; one id per resource group for a factored ranker. ok is
	// false when the profile is outside the lattice.
	NodeIDs(p resource.Vec, dst []int32) ([]int32, bool)
	// ResolveType resolves a VM type to a handle for BestMove and
	// Materialize. ok is false when the type is unknown to the ranker,
	// its demands differ from the registered type of the same name, or
	// the ranker cannot serve it from precomputed moves.
	ResolveType(vt resource.VMType) (TypeRef, bool)
	// NumTypes returns the number of VM types ResolveType can issue
	// handles for (the exclusive bound of TypeRef.Index).
	NumTypes() int
	// BestMove returns the best score reachable from the profile ids by
	// placing one VM of the resolved type, along with the number of
	// distinct candidate profiles. ok is false when the type cannot be
	// placed on the profile. The score and count are bitwise/exactly
	// what a scan over resource.Placements + Score would produce.
	BestMove(ids []int32, ref TypeRef) (score float64, count int, ok bool)
	// Materialize returns a representative anti-collocation assignment
	// realizing BestMove's score, in canonical coordinates (the
	// caller translates to the PM's actual dimension order; see
	// placement.alignAssign). The assignment is freshly allocated and
	// the caller's to modify.
	Materialize(ids []int32, ref TypeRef) (resource.Assignment, bool)
	// ScoreIDs returns the score of the profile identified by ids —
	// the id-indexed equivalent of Score.
	ScoreIDs(ids []int32) (float64, bool)
}

var (
	_ FastRanker = (*Table)(nil)
	_ FastRanker = (*Factored)(nil)
)

// Fast reports whether the table carries the precomputed move table
// (built whenever the lattice has typed successor lists), or needs none
// because no VM type is active.
func (t *Table) Fast() bool { return t.space.NumTypes() == 0 || t.best != nil }

// NodeIDs resolves p to its single lattice node id.
//
//prvm:hotpath
func (t *Table) NodeIDs(p resource.Vec, dst []int32) ([]int32, bool) {
	id := t.space.Index(p) // handles length mismatch and out-of-lattice
	if id < 0 {
		return nil, false
	}
	//prvmlint:allow hotalloc — appends into the caller's reused buffer; steady state never grows it
	return append(dst[:0], int32(id)), true
}

// ResolveType resolves vt against the lattice's active type set,
// verifying the demands match the registered type of the same name.
func (t *Table) ResolveType(vt resource.VMType) (TypeRef, bool) {
	if t.best == nil {
		return TypeRef{}, false
	}
	tid := t.space.TypeIndex(vt.Name)
	if tid < 0 || !t.space.TypeAt(tid).Equal(vt) {
		return TypeRef{}, false
	}
	return TypeRef{id: int32(tid)}, true
}

// NumTypes returns the size of the lattice's active VM-type set.
func (t *Table) NumTypes() int { return t.space.NumTypes() }

// BestMove reads the precomputed argmax for (node, type).
//
//prvm:hotpath
func (t *Table) BestMove(ids []int32, ref TypeRef) (float64, int, bool) {
	m := t.best[int(ids[0])*t.space.NumTypes()+int(ref.id)]
	if m.count == 0 {
		return 0, 0, false
	}
	return m.score, int(m.count), true
}

// Materialize decodes the winning move's representative assignment.
func (t *Table) Materialize(ids []int32, ref TypeRef) (resource.Assignment, bool) {
	out := make(resource.Assignment, 0, t.dimOff[ref.id+1]-t.dimOff[ref.id])
	return t.appendMove(out, ids[0], ref.id, 0)
}

// appendMove appends the winning move of type tid from node id to out,
// its dimensions shifted by lo: the units are the type's own, demands in
// order, and the move table holds the dimension each one landed on. ok
// is false when the type cannot be placed on the node.
func (t *Table) appendMove(out resource.Assignment, id, tid int32, lo int) (resource.Assignment, bool) {
	nt := len(t.dimOff) - 1
	if t.best[int(id)*nt+int(tid)].count == 0 {
		return nil, false
	}
	dims := t.moveDims[int(id)*int(t.dimOff[nt])+int(t.dimOff[tid]):]
	k := 0
	for _, d := range t.space.TypeAt(int(tid)).Demands {
		for _, u := range d.Units {
			out = append(out, resource.DimUnits{Dim: lo + int(dims[k]), Units: u})
			k++
		}
	}
	return out, true
}

// ScoreIDs returns the score of node ids[0].
//
//prvm:hotpath
func (t *Table) ScoreIDs(ids []int32) (float64, bool) {
	if len(ids) != 1 || int(ids[0]) >= len(t.ids) {
		return 0, false
	}
	return t.ids[ids[0]], true
}

// Fast reports whether every group table carries its move table.
func (f *Factored) Fast() bool { return f.fast }

// NodeIDs resolves p to one node id per resource group (the factored
// profile coordinates).
//
//prvm:hotpath
func (f *Factored) NodeIDs(p resource.Vec, dst []int32) ([]int32, bool) {
	if !f.fast || len(p) != f.shape.NumDims() {
		return nil, false
	}
	dst = dst[:0]
	for gi, tb := range f.groups {
		lo, hi := f.shape.GroupRange(gi)
		id := tb.space.Index(p[lo:hi])
		if id < 0 {
			return nil, false
		}
		//prvmlint:allow hotalloc — appends into the caller's reused buffer; steady state never grows it
		dst = append(dst, int32(id))
	}
	return dst, true
}

// ResolveType resolves vt against the bindings precomputed at build
// time, verifying the demands match the registered type.
func (f *Factored) ResolveType(vt resource.VMType) (TypeRef, bool) {
	if !f.fast {
		return TypeRef{}, false
	}
	ti, ok := f.typeIdx[vt.Name]
	if !ok || !f.feas[ti] || !f.types[ti].Equal(vt) {
		return TypeRef{}, false
	}
	return TypeRef{id: int32(ti)}, true
}

// NumTypes returns the number of VM types the ranker was built over.
func (f *Factored) NumTypes() int { return len(f.types) }

// BestMove multiplies the per-group best scores in ascending group
// order — the exact multiplication chain Score performs for the
// winning placement, so the result is bitwise identical to a scan over
// resource.Placements. Per-group placements are independent, so the
// joint candidate count is the product of the group counts and the
// joint maximum factors into per-group maxima (float multiplication is
// monotone on non-negative operands, so this holds bitwise, not just
// in real arithmetic).
//
//prvm:hotpath
func (f *Factored) BestMove(ids []int32, ref TypeRef) (float64, int, bool) {
	ti := int(ref.id)
	gtid := f.gtid[ti]
	score := 1.0
	count := 1
	for gi, tb := range f.groups {
		tid := gtid[gi]
		if tid < 0 {
			// Type does not touch this group: the group profile is
			// unchanged and contributes its own score as a factor.
			score *= tb.ids[ids[gi]]
			continue
		}
		m := tb.best[int(ids[gi])*tb.space.NumTypes()+int(tid)]
		if m.count == 0 {
			return 0, 0, false
		}
		score *= m.score
		count *= int(m.count)
	}
	return score, count, true
}

// Materialize concatenates the winning per-group moves, each decoded
// straight into the result at its group's joint-shape position.
func (f *Factored) Materialize(ids []int32, ref TypeRef) (resource.Assignment, bool) {
	ti := int(ref.id)
	out := make(resource.Assignment, 0, f.types[ti].NumUnits())
	for _, g := range f.dem[ti] {
		gi := int(g)
		lo, _ := f.shape.GroupRange(gi)
		var ok bool
		if out, ok = f.groups[gi].appendMove(out, ids[gi], f.gtid[ti][gi], lo); !ok {
			return nil, false
		}
	}
	return out, true
}

// ScoreIDs multiplies the per-group scores in ascending group order
// (bitwise identical to Score on the corresponding joint profile).
//
//prvm:hotpath
func (f *Factored) ScoreIDs(ids []int32) (float64, bool) {
	if !f.fast || len(ids) != len(f.groups) {
		return 0, false
	}
	score := 1.0
	for gi, tb := range f.groups {
		if int(ids[gi]) >= len(tb.ids) {
			return 0, false
		}
		score *= tb.ids[ids[gi]]
	}
	return score, true
}
