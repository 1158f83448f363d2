// Package mip solves the paper's Section-IV formulation exactly for
// small instances: assign every VM to a PM, with each anti-collocated
// unit on its own dimension (Equ. 1-10), minimizing the total cost of
// the PMs that host at least one VM (Equ. 11). The solver is a
// branch-and-bound over the VM list with symmetry breaking across
// identical empty PMs and a per-group packing lower bound — the
// "branch and bound algorithm [22]" the paper names as the general
// solution, practical only at small scale, which is exactly why the
// heuristics exist. The exactgap example and BenchmarkExactGap use it
// to measure heuristic optimality gaps.
package mip

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"pagerankvm/internal/placement"
	"pagerankvm/internal/resource"
)

// Options tunes the search.
type Options struct {
	// NodeLimit bounds the explored nodes; 0 means 5,000,000. When
	// the limit is hit the best solution found so far is returned
	// with Optimal=false.
	NodeLimit int
	// Costs maps PM ids to activation costs s_j; missing ids cost 1.
	Costs map[int]float64
}

// Assignment records where one VM landed.
type Assignment struct {
	PM     int
	Assign resource.Assignment
}

// Solution is the solver output.
type Solution struct {
	// Cost is Equ. (11)'s objective for the best assignment found.
	Cost float64
	// PMsUsed is the number of PMs hosting at least one VM.
	PMsUsed int
	// Assignments maps VM id to its placement.
	Assignments map[int]Assignment
	// Nodes is the number of search nodes explored.
	Nodes int
	// Optimal reports whether the search completed within NodeLimit.
	Optimal bool
}

// ErrInfeasible is returned when no complete assignment exists.
var ErrInfeasible = errors.New("mip: infeasible instance")

type solver struct {
	cluster   *placement.Cluster
	vms       []*placement.VM
	costs     map[int]float64
	nodeLimit int

	best        float64
	bestAssign  map[int]Assignment
	nodes       int
	truncated   bool
	homogeneous bool
	groupCaps   []int // per-group total capacity of one PM (homogeneous case)
	remaining   [][]int
}

// Solve finds a minimum-cost feasible assignment of vms to pms. The
// pms must be empty (fresh) machines.
func Solve(pms []*placement.PM, vms []*placement.VM, opts Options) (*Solution, error) {
	if len(pms) == 0 {
		return nil, errors.New("mip: no PMs")
	}
	for _, pm := range pms {
		if pm.Active() {
			return nil, fmt.Errorf("mip: pm %d is not empty", pm.ID)
		}
	}
	if opts.NodeLimit == 0 {
		opts.NodeLimit = 5_000_000
	}

	s := &solver{
		cluster:   placement.NewCluster(pms),
		costs:     opts.Costs,
		nodeLimit: opts.NodeLimit,
		best:      math.Inf(1),
	}
	// Larger VMs first: stronger pruning.
	s.vms = append(s.vms, vms...)
	sort.SliceStable(s.vms, func(i, j int) bool {
		return vmSize(s.vms[i]) > vmSize(s.vms[j])
	})
	s.prepareBound(pms)

	s.search(0, 0)

	if s.bestAssign == nil {
		if s.truncated {
			return &Solution{Nodes: s.nodes, Optimal: false}, ErrInfeasible
		}
		return nil, ErrInfeasible
	}
	used := map[int]bool{}
	for _, a := range s.bestAssign {
		used[a.PM] = true
	}
	return &Solution{
		Cost:        s.best,
		PMsUsed:     len(used),
		Assignments: s.bestAssign,
		Nodes:       s.nodes,
		Optimal:     !s.truncated,
	}, nil
}

func vmSize(v *placement.VM) int {
	total := 0
	for _, d := range v.Req {
		total += d.TotalUnits()
	}
	return total
}

func (s *solver) cost(pmID int) float64 {
	if c, ok := s.costs[pmID]; ok {
		return c
	}
	return 1
}

// prepareBound precomputes the per-group demand suffix sums used by
// the packing lower bound. The bound only applies to homogeneous
// inventories (all PMs share one shape), where "units" are comparable.
func (s *solver) prepareBound(pms []*placement.PM) {
	shape := pms[0].Shape
	s.homogeneous = true
	for _, pm := range pms[1:] {
		if pm.Type != pms[0].Type {
			s.homogeneous = false
			return
		}
	}
	for gi := 0; gi < shape.NumGroups(); gi++ {
		g := shape.Group(gi)
		s.groupCaps = append(s.groupCaps, g.Dims*g.Cap)
	}
	// remaining[i][g]: group-g units demanded by vms[i:].
	s.remaining = make([][]int, len(s.vms)+1)
	s.remaining[len(s.vms)] = make([]int, shape.NumGroups())
	for i := len(s.vms) - 1; i >= 0; i-- {
		row := make([]int, shape.NumGroups())
		copy(row, s.remaining[i+1])
		if demand, ok := s.vms[i].DemandOn(pms[0].Type); ok {
			for gi := 0; gi < shape.NumGroups(); gi++ {
				if d, ok := demand.DemandFor(shape.Group(gi).Name); ok {
					for _, u := range d.Units {
						row[gi] += u
					}
				}
			}
		}
		s.remaining[i] = row
	}
}

// lowerBound returns an admissible bound on the additional activation
// cost needed to host vms[idx:].
func (s *solver) lowerBound(idx int) float64 {
	if !s.homogeneous || idx >= len(s.remaining) {
		return 0
	}
	shape := s.cluster.PMs()[0].Shape
	extra := 0
	for gi, capUnits := range s.groupCaps {
		free := 0
		for _, pm := range s.cluster.UsedPMs() {
			lo, hi := shape.GroupRange(gi)
			for d := lo; d < hi; d++ {
				free += shape.Group(gi).Cap - pm.Used()[d]
			}
		}
		deficit := s.remaining[idx][gi] - free
		if deficit <= 0 {
			continue
		}
		need := (deficit + capUnits - 1) / capUnits
		if need > extra {
			extra = need
		}
	}
	if extra == 0 {
		return 0
	}
	minCost := math.Inf(1)
	for _, pm := range s.cluster.UnusedPMs() {
		if c := s.cost(pm.ID); c < minCost {
			minCost = c
		}
	}
	if math.IsInf(minCost, 1) {
		// Not enough PMs left; force a prune by returning a cost that
		// exceeds any finite incumbent.
		return math.Inf(1)
	}
	return float64(extra) * minCost
}

func (s *solver) search(idx int, cost float64) {
	if s.truncated {
		return
	}
	s.nodes++
	if s.nodes > s.nodeLimit {
		s.truncated = true
		return
	}
	if cost+s.lowerBound(idx) >= s.best {
		return
	}
	if idx == len(s.vms) {
		s.best = cost
		s.bestAssign = make(map[int]Assignment, len(s.vms))
		for _, vm := range s.vms {
			pm, _ := s.cluster.Locate(vm.ID)
			h, _ := pm.Get(vm.ID)
			assign := make(resource.Assignment, len(h.Assign))
			copy(assign, h.Assign)
			s.bestAssign[vm.ID] = Assignment{PM: pm.ID, Assign: assign}
		}
		return
	}

	vm := s.vms[idx]
	// Candidates: every used PM, plus the first unused PM of each
	// (type, cost) class — identical empty machines are symmetric.
	candidates := append([]*placement.PM(nil), s.cluster.UsedPMs()...)
	seenClass := map[string]bool{}
	for _, pm := range s.cluster.UnusedPMs() {
		class := fmt.Sprintf("%s/%g", pm.Type, s.cost(pm.ID))
		if seenClass[class] {
			continue
		}
		seenClass[class] = true
		candidates = append(candidates, pm)
	}

	for _, pm := range candidates {
		demand, ok := vm.DemandOn(pm.Type)
		if !ok {
			continue
		}
		stepCost := 0.0
		if !pm.Active() {
			stepCost = s.cost(pm.ID)
		}
		if cost+stepCost >= s.best {
			continue
		}
		for _, pl := range resource.Placements(pm.Shape, pm.Used(), demand) {
			if err := s.cluster.Host(pm, vm, pl.Assign); err != nil {
				continue
			}
			s.search(idx+1, cost+stepCost)
			if _, err := s.cluster.Release(vm.ID); err != nil {
				panic(fmt.Sprintf("mip: release: %v", err))
			}
			if s.truncated {
				return
			}
		}
	}
}
