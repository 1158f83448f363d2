// Package record is the decision record/replay layer of the
// reproduction (DESIGN.md §11): a versioned, self-describing JSONL
// format capturing every placement decision Algorithm 2 makes — the
// request, the candidate PM set with scores, anti-collocation and
// capacity rejections, the chosen PM, the tie-break path, the
// fast-vs-legacy flag — plus span-style phase timings (rank-table
// build, candidate scan, constraint check, winner bind).
//
// A recording is replayable: its header carries the run configuration
// (trace, seed, VM count, ...), so cmd/prvm-replay can re-run the same
// seeded experiment through the current code and verify bit-identical
// decisions (a golden regression), or diff two recordings decision by
// decision. Timings and the fast-path flag are observability metadata,
// never part of decision identity — a fast-path and a legacy recording
// of the same seed diff clean.
//
// Like internal/obs, the package follows a nil-receiver contract: a
// nil *Recorder is the disabled state and every method on it is a
// no-op branch, so instrumented layers hold the pointer and call it
// unconditionally (enforced by prvm-lint's obsnilguard).
package record

import (
	"math"
)

// Format identification, written into every recording's header line.
const (
	FormatName = "prvm-decision-record"
	// FormatVersion is bumped on any incompatible schema change;
	// readers reject versions they do not understand.
	FormatVersion = 1
)

// Header is the first JSONL line of a recording: the format marker,
// the schema version, and the run configuration needed to replay.
type Header struct {
	Format  string  `json:"format"`
	Version int     `json:"version"`
	Meta    RunMeta `json:"meta"`
}

// RunMeta captures the configuration of the recorded run — enough for
// cmd/prvm-replay to reconstruct and re-run it deterministically.
// Kind selects the replay driver; "sim" replays through
// experiments.Replay. Free-form context goes in Labels.
type RunMeta struct {
	// Kind is the replay driver: "sim" for a recorded simulation run,
	// anything else for recordings that only support diff/phases.
	Kind string `json:"kind"`
	// Trace is the workload trace name ("planetlab", "google").
	Trace string `json:"trace,omitempty"`
	// Seed drives workload generation and the placer's tie-breaking.
	Seed int64 `json:"seed,omitempty"`
	// NumVMs is the request-stream size.
	NumVMs int `json:"num_vms,omitempty"`
	// PMsPerType sizes the inventory (per Table II type).
	PMsPerType int `json:"pms_per_type,omitempty"`
	// Steps is the number of monitoring intervals (0 = the default
	// 24 h horizon).
	Steps int `json:"steps,omitempty"`
	// Algorithm names the placer ("PageRankVM").
	Algorithm string `json:"algorithm,omitempty"`
	// RebalanceEvery, when positive, records that the run enabled the
	// descheduler: one rebalance round every that many monitoring
	// intervals (internal/deschedule).
	RebalanceEvery int `json:"rebalance_every,omitempty"`
	// RebalanceBudget is the descheduler's per-round migration budget
	// (MaxMovesPerRound; 0 = the engine default).
	RebalanceBudget int `json:"rebalance_budget,omitempty"`
	// RebalancePMBudget caps moves leaving any single PM per round
	// (MaxMovesPerPM; 0 = the engine default).
	RebalancePMBudget int `json:"rebalance_pm_budget,omitempty"`
	// RebalanceDrainBelow is the fill fraction under which the
	// descheduler tries to evacuate a PM entirely (0 disables the
	// drain pass).
	RebalanceDrainBelow float64 `json:"rebalance_drain_below,omitempty"`
	// Labels carries free-form context (host, git revision, ...).
	Labels map[string]string `json:"labels,omitempty"`
}

// Candidate statuses: why a scanned PM did or did not stay in the
// running for a decision.
const (
	// StatusScored: the PM was feasible and its best accommodation
	// was scored.
	StatusScored = "scored"
	// StatusExcluded: the PM was the migration source (exclude arg).
	StatusExcluded = "excluded"
	// StatusNoFit: capacity or anti-collocation rejection
	// (resource.Fits said no).
	StatusNoFit = "no_fit"
	// StatusNoDemand: the VM type has no quantized demand on this PM
	// type.
	StatusNoDemand = "no_demand"
	// StatusNoProfile: the accommodation left the rank table (no
	// feasible successor profile scored).
	StatusNoProfile = "no_profile"
	// StatusCordoned: the PM is cordoned for a maintenance drain and
	// accepts no new placements.
	StatusCordoned = "cordoned"
)

// Candidate is one PM examined while placing one VM.
type Candidate struct {
	// PM is the candidate PM id.
	PM int `json:"pm"`
	// Status is one of the Status* constants.
	Status string `json:"status"`
	// Score is the best accommodation score (StatusScored only).
	Score float64 `json:"score,omitempty"`
	// Profiles is the number of candidate profiles enumerated or
	// counted for this PM.
	Profiles int `json:"profiles,omitempty"`
	// Unused marks a candidate from the unused-PM fallback scan
	// (Algorithm 2 lines 17-24).
	Unused bool `json:"unused,omitempty"`
}

// Phases are the span-style per-decision phase timings, in
// nanoseconds. They are observability metadata: never compared by
// Equivalent, and omitted from the stream when phase capture is off.
type Phases struct {
	// ScanNs is the candidate scan: the whole used-list (and, on
	// fallback, unused-list) loop including scoring.
	ScanNs int64 `json:"scan_ns"`
	// CheckNs is the constraint check: time inside capacity /
	// anti-collocation feasibility tests (a subset of ScanNs).
	CheckNs int64 `json:"check_ns"`
	// BindNs is the winner bind: materializing and aligning the
	// chosen PM's concrete assignment.
	BindNs int64 `json:"bind_ns"`
}

// Decision is one placement decision. Identity fields (everything a
// replay must reproduce bit-for-bit) come first; Fast, Phases and Seq
// are metadata.
type Decision struct {
	// Seq is the position in the recording's event stream, assigned
	// by the Recorder: 0,1,2,... with no gaps.
	Seq int64 `json:"seq"`
	// VM and VMType identify the request.
	VM     int    `json:"vm"`
	VMType string `json:"vm_type"`
	// PM is the chosen PM id, -1 when the request was rejected
	// (ErrNoCapacity).
	PM int `json:"pm"`
	// PMType is the chosen PM's type ("" on rejection).
	PMType string `json:"pm_type,omitempty"`
	// Score is the winning accommodation score (0 when the decision
	// opened a fresh PM or rejected).
	Score float64 `json:"score"`
	// Scanned and Profiles count examined PMs and enumerated
	// candidate profiles.
	Scanned  int `json:"scanned"`
	Profiles int `json:"profiles"`
	// Ties is the number of candidates tied at the winning score;
	// TiedPMs lists them (present when Ties > 1) — the tie-break
	// path the seeded reservoir sample chose among.
	Ties    int   `json:"ties"`
	TiedPMs []int `json:"tied_pms,omitempty"`
	// Opened marks a decision that powered on an unused PM.
	Opened bool `json:"opened,omitempty"`
	// Rejected marks a no-capacity rejection.
	Rejected bool `json:"rejected,omitempty"`
	// Candidates is the full examined-PM set, in scan order.
	Candidates []Candidate `json:"candidates,omitempty"`
	// Fast records whether the id-indexed fast path served the
	// winning score (metadata, not identity).
	Fast bool `json:"fast,omitempty"`
	// Phases carries the span timings when phase capture is on
	// (metadata, not identity).
	Phases *Phases `json:"phases,omitempty"`
}

// Span is a named span-style timing outside the per-decision phases —
// rank-table builds, simulation ticks, whole runs.
type Span struct {
	// Seq shares the recording-wide sequence with decisions.
	Seq int64 `json:"seq"`
	// Name is the span name ("ranktable.build", "sim.tick",
	// "sim.run").
	Name string `json:"name"`
	// Ns is the span duration in nanoseconds.
	Ns int64 `json:"ns"`
	// Labels carries span context (group name, step index, ...).
	Labels map[string]string `json:"labels,omitempty"`
}

// Line-type discriminators (the "t" field of every post-header line).
const (
	lineDecision = "d"
	lineSpan     = "s"
)

// Equivalent reports whether two decisions are the same placement
// decision: every identity field equal, float scores compared bitwise
// (the repo's fast-vs-legacy contract is bit-identity, not tolerance).
// Seq, Fast and Phases are metadata and not compared.
func Equivalent(a, b Decision) bool {
	if a.VM != b.VM || a.VMType != b.VMType || a.PM != b.PM || a.PMType != b.PMType {
		return false
	}
	if math.Float64bits(a.Score) != math.Float64bits(b.Score) {
		return false
	}
	if a.Scanned != b.Scanned || a.Profiles != b.Profiles || a.Ties != b.Ties {
		return false
	}
	if a.Opened != b.Opened || a.Rejected != b.Rejected {
		return false
	}
	if len(a.TiedPMs) != len(b.TiedPMs) {
		return false
	}
	for i := range a.TiedPMs {
		if a.TiedPMs[i] != b.TiedPMs[i] {
			return false
		}
	}
	if len(a.Candidates) != len(b.Candidates) {
		return false
	}
	for i := range a.Candidates {
		if !candidateEqual(a.Candidates[i], b.Candidates[i]) {
			return false
		}
	}
	return true
}

func candidateEqual(a, b Candidate) bool {
	return a.PM == b.PM && a.Status == b.Status && a.Profiles == b.Profiles &&
		a.Unused == b.Unused &&
		math.Float64bits(a.Score) == math.Float64bits(b.Score)
}
