package serve

import (
	"errors"
	"time"

	"pagerankvm/internal/obs/record"
	"pagerankvm/internal/placement"
)

// Sentinel errors surfaced by the admission path; http.go maps them to
// status codes.
var (
	// errShutdown: the server is stopping; the request was not applied.
	errShutdown = errors.New("serve: shutting down")
	// errOverloaded: the home shard already had queueDepth placements
	// in flight.
	errOverloaded = errors.New("serve: admission queues full")
	// errWALFailed: the WAL could not be made durable; the server is
	// degraded and refuses mutations (state may be ahead of the log).
	errWALFailed = errors.New("serve: wal write failed")
)

// placeResult is a placement's reply, or why it failed.
type placeResult struct {
	PlaceResponse
	err error
}

// submitPlace places vm on the caller's goroutine: the home shard
// first, then each next shard in ring order while none has capacity,
// one shard lock at a time, and then the barrier. exclude bars a PM —
// an evict's source — from being chosen.
func (s *Server) submitPlace(vm *placement.VM, exclude *placement.PM) placeResult {
	start := time.Now()
	home := s.vmShard(vm.ID)
	inflight := &s.shards[home].inflight
	defer inflight.Add(-1)
	if inflight.Add(1) > queueDepth {
		return placeResult{err: errOverloaded}
	}
	var res placeResult
	for i := range s.shards {
		if i > 0 {
			s.met.forwards.Inc() // the previous shard had no room
		}
		sh := s.shards[(home+i)%len(s.shards)]
		sh.mu.Lock()
		res = s.placeLocked(sh, vm, exclude)
		sh.mu.Unlock()
		if !errors.Is(res.err, placement.ErrNoCapacity) {
			break
		}
	}
	switch {
	case errors.Is(res.err, placement.ErrNoCapacity):
		s.met.placeRejs.Inc()
	case res.err == nil && !res.Duplicate:
		if err := s.barrier(); err != nil {
			// The op may not be durable; do not acknowledge it.
			res = placeResult{err: err}
		}
	}
	s.met.placeSecs.Observe(time.Since(start).Seconds())
	return res
}

// placeLocked handles one placement under sh.mu: duplicate check,
// placer decision, commit. Committing inside the critical section keeps
// the WAL's per-PM op order equal to the apply order — the invariant
// replay relies on.
func (s *Server) placeLocked(sh *shard, vm *placement.VM, exclude *placement.PM) placeResult {
	if e, ok := s.loc.load(vm.ID); ok {
		s.met.placeDups.Inc()
		return placeResult{PlaceResponse: PlaceResponse{VM: vm.ID, PM: e.pm, Duplicate: true, Seq: -1}}
	}
	pm, assign, err := sh.placer.Place(sh.cluster, vm, exclude)
	if err != nil {
		return placeResult{err: err}
	}
	opened := !pm.Active()
	var score float64
	if !opened {
		// The winning accommodation score; a PM opened from the unused
		// list scores 0 by convention (no candidate beat it).
		score, _ = sh.placer.ScoreOn(pm, vm)
	}
	op := record.Op{
		Kind:   record.OpPlace,
		VM:     vm.ID,
		VMType: vm.Type,
		PM:     pm.ID,
		PMType: pm.Type,
		Assign: record.AssignOf(assign),
		Score:  score,
		Opened: opened,
	}
	_, seq, err := s.commit(op, placement.Hosted{VM: vm, Assign: assign})
	if err != nil {
		return placeResult{err: err}
	}
	return placeResult{PlaceResponse: PlaceResponse{
		VM: vm.ID, PM: pm.ID, PMType: pm.Type, Score: score, Opened: opened, Seq: seq, Assign: op.Assign,
	}}
}
