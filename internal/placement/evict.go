package placement

import (
	"math"
	"slices"

	"pagerankvm/internal/obs"
	"pagerankvm/internal/resource"
)

// Evictor selects which VM to migrate away from an overloaded PM.
// overloaded lists the dimension indices whose actual utilization
// crossed the threshold; a useful victim must occupy at least one of
// them, otherwise evicting it cannot relieve the overload.
type Evictor interface {
	Name() string
	// SelectVictim returns the VM id to evict, or ok=false when no
	// hosted VM touches an overloaded dimension.
	SelectVictim(pm *PM, overloaded []int) (vmID int, ok bool)
}

// overloadUnits returns how many of an assignment's units sit on the
// overloaded dimensions, and whether any does: a VM that occupies none
// of them is no victim, since evicting it cannot relieve the overload.
// overloaded lists a handful of dimensions, so a linear membership
// test beats building a set.
func overloadUnits(assign resource.Assignment, overloaded []int) (units int, occupies bool) {
	for _, du := range assign {
		if slices.Contains(overloaded, du.Dim) {
			units += du.Units
			occupies = true
		}
	}
	return units, occupies
}

// RankEvictor is the paper's overload policy for PageRankVM: "for each
// VM on the PM, we check the PageRank value of the resulting profile
// of this PM after removing the VM. Then we select the VM that can
// result in the highest PageRank value to remove."
//
// Applied verbatim, that sentence always evicts the largest VM (the
// emptiest residual profile is the most developable one), which is
// maximally disruptive: large evictees rarely fit the remaining used
// PMs and force fresh PMs on. We therefore restrict the comparison to
// the least-disruptive candidates — the VMs with the minimum footprint
// on the overloaded dimensions (any of them relieves a ~90%-threshold
// breach) — and apply the paper's residual-rank criterion among those.
type RankEvictor struct {
	Placer *PageRankVM
}

var _ Evictor = RankEvictor{}

// Name implements Evictor.
func (RankEvictor) Name() string { return "rank" }

// SelectVictim implements Evictor.
func (e RankEvictor) SelectVictim(pm *PM, overloaded []int) (int, bool) {
	var (
		bestID    = -1
		bestUnits = math.MaxInt
		bestScore = math.Inf(-1)
	)
	// Candidates in ascending VM id order, for determinism.
	for _, h := range pm.HostedVMs() {
		units, occupies := overloadUnits(h.Assign, overloaded)
		if !occupies {
			continue
		}
		score, ok := e.Placer.ScoreVictim(pm, h)
		if !ok {
			score = math.Inf(-1)
		}
		if units < bestUnits || (units == bestUnits && score > bestScore) {
			bestUnits, bestScore, bestID = units, score, h.VM.ID
		}
	}
	if bestID >= 0 {
		e.Placer.met.victimsSelected.Inc()
		if e.Placer.obs.TraceActive() {
			e.Placer.obs.Emit(obs.Event{Name: "placement.evict", Fields: []obs.Field{
				obs.F("pm", pm.ID),
				obs.F("victim", bestID),
				obs.F("residual_score", bestScore),
				obs.F("overloaded_dims", len(overloaded)),
			}})
		}
	}
	return bestID, bestID >= 0
}

// MMTEvictor is CloudSim's default "minimum migration time" policy
// used for the baselines: evict the VM with the smallest memory
// footprint (memory size dominates live-migration time). Falls back to
// smallest total demand when the PM type has no "mem" group.
type MMTEvictor struct {
	// MemGroup is the memory group name; default "mem".
	MemGroup string
}

var _ Evictor = MMTEvictor{}

// Name implements Evictor.
func (MMTEvictor) Name() string { return "mmt" }

// SelectVictim implements Evictor.
func (e MMTEvictor) SelectVictim(pm *PM, overloaded []int) (int, bool) {
	memGroup := e.MemGroup
	if memGroup == "" {
		memGroup = "mem"
	}
	var (
		bestID   = -1
		bestSize = math.MaxInt
	)
	for _, h := range pm.HostedVMs() {
		if _, occupies := overloadUnits(h.Assign, overloaded); !occupies {
			continue
		}
		demand, ok := h.VM.DemandOn(pm.Type)
		if !ok {
			// No demand record on this PM type: the migration time is
			// unknowable, and counting it as zero would make such a VM
			// the permanent first choice. Skip it.
			continue
		}
		size := 0
		if mem, ok := demand.DemandFor(memGroup); ok {
			for _, u := range mem.Units {
				size += u
			}
		} else {
			size = demand.TotalUnits()
		}
		if size < bestSize {
			bestSize, bestID = size, h.VM.ID
		}
	}
	return bestID, bestID >= 0
}
