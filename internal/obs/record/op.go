package record

import (
	"fmt"

	"pagerankvm/internal/resource"
)

// OpAssign is one committed unit of an op's assignment: Units resource
// units landed on global dimension index Dim of the hosting PM's
// shape. It mirrors resource.DimUnits with stable JSON field names so
// the WAL format does not depend on struct-field capitalization.
type OpAssign struct {
	Dim   int `json:"dim"`
	Units int `json:"units"`
}

// AssignOf encodes a concrete assignment for an op (nil when empty, so
// the field is omitted).
func AssignOf(a resource.Assignment) []OpAssign {
	if len(a) == 0 {
		return nil
	}
	out := make([]OpAssign, len(a))
	for i, du := range a {
		out[i] = OpAssign(du)
	}
	return out
}

// Assignment decodes an op's assignment back to the placement form.
func Assignment(a []OpAssign) resource.Assignment {
	if len(a) == 0 {
		return nil
	}
	out := make(resource.Assignment, len(a))
	for i, du := range a {
		out[i] = resource.DimUnits(du)
	}
	return out
}

// Op is one applied cluster mutation — the write-ahead-log entry shape
// of the serve daemon (internal/serve, DESIGN.md §14). Where Decision
// captures *why* a placement was chosen (the candidate set, scores,
// tie path), Op captures *what* was committed: enough to re-apply the
// mutation to a fresh cluster and reach bit-identical state. A WAL is
// an ordinary recording whose post-header lines are ops ("t":"o"), so
// it shares the versioned header, the gzip framing, the seq discipline
// and the readers of every other recording; readers that predate ops
// skip the lines (unknown line types are non-fatal by design).
//
// Replay contract: applying the ops of a recording in ascending Seq
// order to the inventory named by the header reconstructs the exact
// cluster state — per-PM used vectors, hosted-VM sets, concrete
// anti-collocation assignments, and (because ops touching one PM are
// logged in apply order) the used/unused list orders.
type Op struct {
	// Seq is the position in the recording's event stream, assigned by
	// the Recorder — shared with decisions and spans, gapless per
	// recording. Snapshot cuts are expressed against it: a snapshot
	// taken at seq S reflects exactly the ops with Seq < S.
	Seq int64 `json:"seq"`
	// Kind is OpPlace, OpRelease or OpRetire.
	Kind string `json:"kind"`
	// VM and VMType identify the VM instance being placed or released.
	VM     int    `json:"vm"`
	VMType string `json:"vm_type,omitempty"`
	// PM is the hosting PM: the destination of a place, the current
	// host of a release.
	PM int `json:"pm"`
	// PMType is the hosting PM's catalog type name.
	PMType string `json:"pm_type,omitempty"`
	// Assign is the concrete anti-collocation assignment committed by a
	// place: which dimension of the PM received each demanded unit.
	// Releases omit it (the cluster knows what the VM holds).
	Assign []OpAssign `json:"assign,omitempty"`
	// Score is the winning accommodation score of a place (metadata:
	// replay applies Assign, it never re-scores).
	Score float64 `json:"score,omitempty"`
	// Opened marks a place that powered on a previously unused PM
	// (metadata).
	Opened bool `json:"opened,omitempty"`
}

// Op kinds. An eviction/migration is deliberately not its own kind: it
// is logged as a release followed by a place, each self-contained, so
// replay needs no compound-operation logic and a crash between the two
// halves leaves a consistent (merely un-migrated) state.
const (
	// OpPlace: VM hosted on PM with the recorded assignment.
	OpPlace = "place"
	// OpRelease: VM released from PM, its resources returned.
	OpRelease = "release"
	// OpRetire: PM permanently removed from the inventory — the final
	// op of a maintenance drain, logged only after every hosted VM was
	// moved off (each move its own release+place pair). VM fields are
	// unused.
	OpRetire = "retire"
)

// lineOp is the "t" discriminator of an op line.
const lineOp = "o"

type opLine struct {
	T string `json:"t"`
	Op
}

// RecordOp appends op, overwriting op.Seq with the next sequence
// number, and returns the assigned seq (-1 on a nil/disabled
// recorder). Callers needing the seq durable before acknowledging —
// the serve daemon's WAL discipline — follow up with Flush or Sync.
func (r *Recorder) RecordOp(op Op) int64 {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	op.Seq = r.seq
	r.seq++
	r.nop++
	if r.collect {
		op.Assign = append([]OpAssign(nil), op.Assign...)
		r.ops = append(r.ops, op)
		return op.Seq
	}
	if r.err != nil {
		return op.Seq
	}
	var err error
	if line, ok := appendOpLine(r.line[:0], &op); ok {
		r.line = line
		_, err = r.bw.Write(line)
	} else {
		err = r.enc.Encode(opLine{T: lineOp, Op: op})
	}
	if err != nil {
		r.err = fmt.Errorf("record: write op: %w", err)
	}
	return op.Seq
}

// Ops returns the collected ops (collector mode; nil otherwise). The
// slice is shared — callers must not modify it.
func (r *Recorder) Ops() []Op {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ops
}
