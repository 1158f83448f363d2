package resource

import (
	"errors"
	"fmt"
	"sort"
)

// Group describes a set of identical, interchangeable dimensions of one
// physical resource: for example "cpu" with Dims=8 physical cores of
// Cap=4 units each, or "mem" with a single dimension. Anti-collocation
// constraints are expressed against groups: the per-unit demands of one
// VM must land on distinct dimensions of the group (Equ. 3/4 and 8/9 in
// the paper).
type Group struct {
	// Name identifies the group ("cpu", "mem", "disk", ...). Demands
	// refer to groups by name.
	Name string
	// Dims is the number of identical dimensions in the group (e.g.
	// the number of physical cores).
	Dims int
	// Cap is the per-dimension capacity in integer units.
	Cap int
}

// maxKeyUnit bounds per-dimension capacities so canonical profiles can
// be encoded one byte per dimension in map keys.
const maxKeyUnit = 255

// Shape is the dimension layout of a PM type: an ordered list of groups.
// A Shape is immutable after construction.
type Shape struct {
	groups  []Group
	offsets []int // offsets[i] is the first dimension index of group i
	dims    int   // total dimension count
	total   int   // total capacity in units, summed over all dimensions
}

// NewShape validates the groups and builds a Shape. Group names must be
// non-empty and unique, dimension counts positive, and capacities in
// [1, 255].
func NewShape(groups ...Group) (*Shape, error) {
	if len(groups) == 0 {
		return nil, errors.New("resource: shape needs at least one group")
	}
	seen := make(map[string]bool, len(groups))
	s := &Shape{
		groups:  make([]Group, len(groups)),
		offsets: make([]int, len(groups)),
	}
	for i, g := range groups {
		switch {
		case g.Name == "":
			return nil, fmt.Errorf("resource: group %d has empty name", i)
		case seen[g.Name]:
			return nil, fmt.Errorf("resource: duplicate group name %q", g.Name)
		case g.Dims <= 0:
			return nil, fmt.Errorf("resource: group %q has %d dims", g.Name, g.Dims)
		case g.Cap <= 0 || g.Cap > maxKeyUnit:
			return nil, fmt.Errorf("resource: group %q capacity %d outside [1,%d]", g.Name, g.Cap, maxKeyUnit)
		}
		seen[g.Name] = true
		s.groups[i] = g
		s.offsets[i] = s.dims
		s.dims += g.Dims
		s.total += g.Dims * g.Cap
	}
	return s, nil
}

// MustShape is NewShape that panics on error, for static catalogs and
// tests.
func MustShape(groups ...Group) *Shape {
	s, err := NewShape(groups...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumDims returns the total number of dimensions.
func (s *Shape) NumDims() int { return s.dims }

// NumGroups returns the number of groups.
func (s *Shape) NumGroups() int { return len(s.groups) }

// Group returns the i-th group.
func (s *Shape) Group(i int) Group { return s.groups[i] }

// GroupIndex returns the index of the named group, or -1.
func (s *Shape) GroupIndex(name string) int {
	for i, g := range s.groups {
		if g.Name == name {
			return i
		}
	}
	return -1
}

// GroupRange returns the half-open dimension index range [lo, hi) of
// group i.
func (s *Shape) GroupRange(i int) (lo, hi int) {
	lo = s.offsets[i]
	return lo, lo + s.groups[i].Dims
}

// Capacity returns the capacity vector of the shape.
func (s *Shape) Capacity() Vec {
	v := make(Vec, s.dims)
	for i, g := range s.groups {
		lo, hi := s.GroupRange(i)
		for d := lo; d < hi; d++ {
			v[d] = g.Cap
		}
	}
	return v
}

// DimCap returns the capacity of dimension d, or 0 when the shape has
// no dimension d.
func (s *Shape) DimCap(d int) int {
	for i, g := range s.groups {
		if lo, hi := s.GroupRange(i); lo <= d && d < hi {
			return g.Cap
		}
	}
	return 0
}

// TotalCapacity returns the total units across all dimensions.
func (s *Shape) TotalCapacity() int { return s.total }

// Zero returns the all-zero profile of the shape.
func (s *Shape) Zero() Vec { return make(Vec, s.dims) }

// Valid reports whether v has the right length and every dimension lies
// within [0, cap].
func (s *Shape) Valid(v Vec) bool {
	if len(v) != s.dims {
		return false
	}
	for i, g := range s.groups {
		lo, hi := s.GroupRange(i)
		for d := lo; d < hi; d++ {
			if v[d] < 0 || v[d] > g.Cap {
				return false
			}
		}
	}
	return true
}

// Canon returns the canonical form of v: within every group the
// dimension values are sorted ascending. Profiles that are permutations
// of one another within groups are physically indistinguishable (the
// dimensions are identical hardware), so they share a canonical form
// and a rank score.
func (s *Shape) Canon(v Vec) Vec {
	out := v.Clone()
	s.CanonInPlace(out)
	return out
}

// CanonInPlace sorts v into canonical form without allocating.
func (s *Shape) CanonInPlace(v Vec) {
	for i := range s.groups {
		lo, hi := s.GroupRange(i)
		sort.Ints(v[lo:hi])
	}
}

// Key encodes the canonical form of v as a compact string usable as a
// map key. One byte per dimension; NewShape guarantees every value fits.
func (s *Shape) Key(v Vec) string {
	c := s.Canon(v)
	b := make([]byte, len(c))
	for i, x := range c {
		b[i] = byte(x)
	}
	return string(b)
}

// Util returns the aggregate utilization of v in [0, 1]: used units over
// total capacity.
func (s *Shape) Util(v Vec) float64 {
	if s.total == 0 {
		return 0
	}
	return float64(v.Sum()) / float64(s.total)
}

// GroupUtil returns the utilization of group i under v.
func (s *Shape) GroupUtil(v Vec, i int) float64 {
	lo, hi := s.GroupRange(i)
	used := 0
	for d := lo; d < hi; d++ {
		used += v[d]
	}
	return float64(used) / float64(s.groups[i].Dims*s.groups[i].Cap)
}

// IsBest reports whether v is the best profile: full utilization in
// every dimension.
func (s *Shape) IsBest(v Vec) bool {
	for i, g := range s.groups {
		lo, hi := s.GroupRange(i)
		for d := lo; d < hi; d++ {
			if v[d] != g.Cap {
				return false
			}
		}
	}
	return true
}

// SubShape returns a single-group shape for group i, used by the
// factored ranker.
func (s *Shape) SubShape(i int) *Shape {
	sub, err := NewShape(s.groups[i])
	if err != nil {
		// The group was validated when s was built.
		panic(err)
	}
	return sub
}

// Project extracts group i's slice of v as a vector for the sub-shape.
func (s *Shape) Project(v Vec, i int) Vec {
	lo, hi := s.GroupRange(i)
	out := make(Vec, hi-lo)
	copy(out, v[lo:hi])
	return out
}

// NumProfiles returns the number of canonical profiles in the full box
// lattice of the shape: the product over groups of multiset counts
// C(dims+cap, cap). Returns -1 on overflow.
func (s *Shape) NumProfiles() int64 {
	total := int64(1)
	for _, g := range s.groups {
		n := multisetCount(g.Dims, g.Cap)
		if n < 0 {
			return -1
		}
		total *= n
		if total < 0 {
			return -1
		}
	}
	return total
}

// multisetCount returns C(dims+cap, cap): the number of non-decreasing
// sequences of length dims with values in [0, cap].
func multisetCount(dims, capUnits int) int64 {
	n, k := int64(dims+capUnits), int64(capUnits)
	if k > n-k {
		k = n - k
	}
	result := int64(1)
	for i := int64(1); i <= k; i++ {
		result = result * (n - k + i) / i
		if result < 0 {
			return -1
		}
	}
	return result
}
