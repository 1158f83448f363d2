package lattice

// Arithmetic node indexing. Node ids are lexicographic ranks of the
// canonical profiles, and within one group a canonical profile is a
// non-decreasing sequence over [0, cap] — a combinatorial object whose
// rank is a handful of table lookups. Replacing the string-keyed index
// map with this ranking removes one string allocation plus one hash
// probe per lookup and, during wiring, per enumerated placement; it is
// what lets the arena wire path and the PM node-id resolution run
// allocation-free.

import "pagerankvm/internal/resource"

// groupRank ranks one group's canonical (non-decreasing) value
// sequences in lexicographic order.
type groupRank struct {
	lo, hi int // dimension range [lo, hi) in the joint shape
	dims   int // hi - lo
	capU   int // per-dimension capacity
	count  int // number of canonical sequences: C(dims+cap, cap)
	radix  int // product of the counts of all later groups

	// pref[L*(capU+1)+w] is the number of non-decreasing sequences of
	// length L whose first value is below w (given values in [0, capU]):
	// sum over x < w of C(L-1+capU-x, capU-x)... stored for L = suffix
	// length, so rank accumulation is two lookups per dimension.
	pref []int
}

// shapeRank is the per-shape ranking table set, one groupRank per
// group, built once in enumerate.
type shapeRank struct {
	groups []groupRank
}

// binom returns C(n+k, k) by the exact increasing-factor product
// (after step i the accumulator is C(n+i, i), so every division is
// exact). The lattice size was bounded by MaxNodes before this runs,
// so the products stay well inside int range.
func binom(n, k int) int {
	r := 1
	for i := 1; i <= k; i++ {
		r = r * (n + i) / i
	}
	return r
}

// newShapeRank precomputes the ranking tables of shape.
func newShapeRank(shape *resource.Shape) shapeRank {
	ng := shape.NumGroups()
	rk := shapeRank{groups: make([]groupRank, ng)}
	for gi := 0; gi < ng; gi++ {
		g := shape.Group(gi)
		lo, hi := shape.GroupRange(gi)
		gr := groupRank{lo: lo, hi: hi, dims: g.Dims, capU: g.Cap}
		gr.count = binom(g.Dims, g.Cap)
		stride := g.Cap + 1
		gr.pref = make([]int, g.Dims*stride)
		for L := 0; L < g.Dims; L++ {
			row := gr.pref[L*stride : (L+1)*stride]
			// row[w] = sum over x in [0, w) of the number of
			// non-decreasing length-L sequences with values in [x, cap].
			sum := 0
			for w := 0; w < stride; w++ {
				row[w] = sum
				sum += binom(L, g.Cap-w)
			}
		}
		rk.groups[gi] = gr
	}
	// radix[g] = product of counts of groups after g.
	radix := 1
	for gi := ng - 1; gi >= 0; gi-- {
		rk.groups[gi].radix = radix
		radix *= rk.groups[gi].count
	}
	return rk
}

// rankSorted returns the lexicographic rank of an already-sorted
// (non-decreasing) group value sequence. Values must be in [0, capU].
//
//prvm:hotpath
func (g *groupRank) rankSorted(v []int) int {
	stride := g.capU + 1
	r, prev, row := 0, 0, (len(v)-1)*stride // row: offset of the suffix-length table
	for _, val := range v {
		r += g.pref[row+val] - g.pref[row+prev]
		prev = val
		row -= stride
	}
	return r
}

// insertionSort sorts a small int slice ascending — group widths are
// single digits, where insertion sort beats sort.Ints and, unlike it,
// does not box its argument into an interface.
//
//prvm:hotpath
func insertionSort(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
