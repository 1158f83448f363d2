package resource

import (
	"fmt"
	"sort"
	"strings"
)

// Demand is one VM type's requirement against one resource group.
// Units holds the per-unit amounts; each entry must be placed on a
// *distinct* dimension of the group (the anti-collocation constraint):
// e.g. Units=[1,1] on group "cpu" demands 1 unit on each of two
// different physical cores. A single-dimension group (memory) simply
// has one entry.
type Demand struct {
	Group string
	Units []int
}

// VMType is a VM class: a name plus its demands across resource groups.
// In the paper's notation a VM type like {[1,1] cpu} is written [1,1];
// the Units of each Demand are the alpha/gamma values after
// quantization.
type VMType struct {
	Name    string
	Demands []Demand
}

// NewVMType builds a VM type with demands sorted by group name and each
// demand's units sorted descending (the canonical internal order used
// by placement enumeration).
func NewVMType(name string, demands ...Demand) VMType {
	ds := make([]Demand, 0, len(demands))
	for _, d := range demands {
		if len(d.Units) == 0 {
			continue
		}
		units := make([]int, len(d.Units))
		copy(units, d.Units)
		sort.Sort(sort.Reverse(sort.IntSlice(units)))
		ds = append(ds, Demand{Group: d.Group, Units: units})
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].Group < ds[j].Group })
	return VMType{Name: name, Demands: ds}
}

// Validate checks the VM type against a shape: every demand group must
// exist, unit counts must not exceed the group's dimension count, and
// every unit amount must fit a single dimension.
func (t VMType) Validate(s *Shape) error {
	for _, d := range t.Demands {
		gi := s.GroupIndex(d.Group)
		if gi < 0 {
			return fmt.Errorf("resource: vm type %q demands unknown group %q", t.Name, d.Group)
		}
		g := s.Group(gi)
		if len(d.Units) > g.Dims {
			return fmt.Errorf("resource: vm type %q demands %d anti-collocated units on group %q with only %d dims",
				t.Name, len(d.Units), d.Group, g.Dims)
		}
		for _, u := range d.Units {
			if u <= 0 {
				return fmt.Errorf("resource: vm type %q has non-positive unit demand on group %q", t.Name, d.Group)
			}
			if u > g.Cap {
				return fmt.Errorf("resource: vm type %q unit demand %d exceeds group %q capacity %d",
					t.Name, u, d.Group, g.Cap)
			}
		}
	}
	return nil
}

// DemandFor returns the demand on the named group and whether one exists.
func (t VMType) DemandFor(group string) (Demand, bool) {
	for _, d := range t.Demands {
		if d.Group == group {
			return d, true
		}
	}
	return Demand{}, false
}

// TotalUnits returns the total demanded units across all groups.
func (t VMType) TotalUnits() int {
	total := 0
	for _, d := range t.Demands {
		for _, u := range d.Units {
			total += u
		}
	}
	return total
}

// NumUnits returns how many units the type demands across all groups:
// the length of any assignment that places it.
func (t VMType) NumUnits() int {
	n := 0
	for _, d := range t.Demands {
		n += len(d.Units)
	}
	return n
}

// Equal reports whether two VM types have the same name and identical
// demands. The placer's id-indexed fast path uses it to verify that a
// VM's demand really is the type a rank table precomputed, rather than
// trusting the name alone.
func (t VMType) Equal(o VMType) bool {
	return t.Name == o.Name && t.SameDemands(o)
}

// SameDemands reports whether two VM types demand the same thing
// (group names, unit counts and amounts, in order) under whatever
// names: every placement of one is a placement of the other.
func (t VMType) SameDemands(o VMType) bool {
	if len(t.Demands) != len(o.Demands) {
		return false
	}
	for i, d := range t.Demands {
		od := o.Demands[i]
		if d.Group != od.Group || len(d.Units) != len(od.Units) {
			return false
		}
		for k, u := range d.Units {
			if od.Units[k] != u {
				return false
			}
		}
	}
	return true
}

// Project returns a copy of the VM type containing only the demand on
// the named group (used by the factored ranker). The second return is
// false when the type has no demand on the group.
func (t VMType) Project(group string) (VMType, bool) {
	d, ok := t.DemandFor(group)
	if !ok {
		return VMType{}, false
	}
	return VMType{Name: t.Name, Demands: []Demand{d}}, true
}

// String renders the type as e.g. "m3.large{cpu:[1,1] mem:[2] disk:[4]}".
func (t VMType) String() string {
	var sb strings.Builder
	sb.WriteString(t.Name)
	sb.WriteByte('{')
	for i, d := range t.Demands {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(d.Group)
		sb.WriteByte(':')
		sb.WriteString(Vec(d.Units).String())
	}
	sb.WriteByte('}')
	return sb.String()
}
