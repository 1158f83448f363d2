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
	// errOverloaded: every shard's admission queue was full.
	errOverloaded = errors.New("serve: admission queues full")
	// errWALFailed: the WAL could not be made durable; the server is
	// degraded and refuses mutations (state may be ahead of the log).
	errWALFailed = errors.New("serve: wal write failed")
)

// placeReq is one queued placement: the VM to place, eviction context,
// forwarding state, and the waiter's reply channel.
type placeReq struct {
	vm *placement.VM
	// exclude bars a PM from being chosen — the eviction source during
	// a re-place. Pointer identity; PMs of other shards never collide.
	exclude *placement.PM
	// home is the shard the request was first offered to; tried counts
	// shards attempted, for capacity forwarding.
	home  int
	tried int
	// enq stamps admission for the serve.place_seconds histogram.
	enq time.Time
	// done receives exactly one result (buffered: the batcher never
	// blocks on a waiter).
	done chan placeResult
}

// placeResult is the outcome of a placeReq.
type placeResult struct {
	pmID   int
	pmType string
	assign []record.OpAssign
	score  float64
	opened bool
	dup    bool
	seq    int64
	err    error
}

// batcher drains one shard's admission queue: it blocks for the first
// request, takes whatever else has queued (up to batchMax), and commits
// the batch in one critical section. One batcher goroutine per shard,
// stopped by s.stop.
func (s *Server) batcher(sh *shard, stop <-chan struct{}) {
	defer s.wg.Done()
	for {
		var first *placeReq
		select {
		case first = <-sh.queue:
		case <-stop:
			s.drainQueue(sh)
			return
		}
		batch := s.collectBatch(sh, first)
		s.commitBatch(sh, batch)
		select {
		case <-stop:
			s.drainQueue(sh)
			return
		default:
		}
	}
}

// collectBatch assembles one batch starting from first: greedy group
// commit — take everything already queued and go. Requests arriving
// during the previous commit form the next batch, so batching scales
// with load and adds zero idle latency (DESIGN.md §14 records why a
// timed window lost).
func (s *Server) collectBatch(sh *shard, first *placeReq) []*placeReq {
	batch := []*placeReq{first}
	for len(batch) < batchMax {
		select {
		case r := <-sh.queue:
			batch = append(batch, r)
		default:
			return batch
		}
	}
	return batch
}

// drainQueue answers every queued request with a shutdown error.
// Waiters also select on s.stop, so this is belt and braces for
// requests enqueued concurrently with shutdown.
func (s *Server) drainQueue(sh *shard) {
	for {
		select {
		case r := <-sh.queue:
			r.done <- placeResult{err: errShutdown}
		default:
			return
		}
	}
}

// commitBatch applies a batch under the shard lock — the admission
// batching that amortizes one lock acquisition and one WAL barrier over
// many placements — then passes the barrier once and answers the
// waiters. No-capacity requests are forwarded to the next shard after
// the critical section.
func (s *Server) commitBatch(sh *shard, batch []*placeReq) {
	s.met.batchSize.Observe(float64(len(batch)))
	results := make([]placeResult, len(batch))
	wrote := false

	sh.mu.Lock()
	for i, req := range batch {
		results[i] = s.placeLocked(sh, req)
		if results[i].err == nil && !results[i].dup {
			wrote = true
		}
	}
	sh.mu.Unlock()

	var flushErr error
	if wrote {
		flushErr = s.barrier()
	}

	for i, req := range batch {
		res := results[i]
		if flushErr != nil && res.err == nil && !res.dup {
			// The op may not be durable; do not acknowledge it.
			res = placeResult{err: flushErr}
		}
		if errors.Is(res.err, placement.ErrNoCapacity) && req.tried < len(s.shards) {
			s.met.forwards.Inc()
			s.forward(req)
			continue
		}
		req.done <- res
	}
}

// placeLocked handles one request under sh.mu: duplicate check, placer
// decision, commit. Committing inside the critical section keeps the
// WAL's per-PM op order equal to the apply order — the invariant replay
// relies on.
func (s *Server) placeLocked(sh *shard, req *placeReq) placeResult {
	if e, ok := s.loc.load(req.vm.ID); ok {
		s.met.placeDups.Inc()
		return placeResult{dup: true, pmID: e.pm, seq: -1}
	}
	pm, assign, err := sh.placer.Place(sh.cluster, req.vm, req.exclude)
	if err != nil {
		return placeResult{err: err}
	}
	opened := !pm.Active()
	var score float64
	if !opened {
		// The winning accommodation score; a PM opened from the unused
		// list scores 0 by convention (no candidate beat it).
		score, _ = sh.placer.ScoreOn(pm, req.vm)
	}
	op := record.Op{
		Kind:   record.OpPlace,
		VM:     req.vm.ID,
		VMType: req.vm.Type,
		PM:     pm.ID,
		PMType: pm.Type,
		Assign: record.AssignOf(assign),
		Score:  score,
		Opened: opened,
	}
	_, seq, err := s.commit(op, placement.Hosted{VM: req.vm, Assign: assign})
	if err != nil {
		return placeResult{err: err}
	}
	return placeResult{
		pmID:   pm.ID,
		pmType: pm.Type,
		assign: op.Assign,
		score:  score,
		opened: opened,
		seq:    seq,
	}
}

// forward offers a no-capacity request to the next shard in the ring.
// When every shard has been tried, the request is rejected with
// ErrNoCapacity; a full target queue rejects with errOverloaded rather
// than blocking the batcher.
func (s *Server) forward(req *placeReq) {
	req.tried++
	if req.tried >= len(s.shards) {
		s.met.placeRejs.Inc()
		req.done <- placeResult{err: placement.ErrNoCapacity}
		return
	}
	next := s.shards[(req.home+req.tried)%len(s.shards)]
	select {
	case next.queue <- req:
	default:
		req.done <- placeResult{err: errOverloaded}
	}
}

// submitPlace enqueues a placement on its home shard and waits for the
// result (or shutdown).
func (s *Server) submitPlace(vm *placement.VM, exclude *placement.PM) placeResult {
	req := &placeReq{
		vm:      vm,
		exclude: exclude,
		home:    s.vmShard(vm.ID),
		enq:     time.Now(),
		done:    make(chan placeResult, 1),
	}
	select {
	case s.shards[req.home].queue <- req:
	case <-s.stop:
		return placeResult{err: errShutdown}
	}
	select {
	case res := <-req.done:
		s.met.placeSecs.Observe(time.Since(req.enq).Seconds())
		return res
	case <-s.stop:
		return placeResult{err: errShutdown}
	}
}
