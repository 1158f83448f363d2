package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"pagerankvm/internal/obs"
	"pagerankvm/internal/obs/record"
	"pagerankvm/internal/placement"
)

// PlaceRequest is the body of POST /v1/place: place one instance of a
// catalog VM type.
type PlaceRequest struct {
	// VM is the caller-chosen instance id — the idempotency key. A
	// repeated id returns the existing placement with Duplicate set.
	VM int `json:"vm"`
	// Type is the catalog VM type name (e.g. "m3.large").
	Type string `json:"type"`
}

// PlaceResponse is the body of a successful POST /v1/place.
type PlaceResponse struct {
	// VM echoes the request id.
	VM int `json:"vm"`
	// PM is the hosting PM id.
	PM int `json:"pm"`
	// PMType is the hosting PM's catalog type (empty on duplicates).
	PMType string `json:"pm_type,omitempty"`
	// Score is the winning accommodation score (0 when a PM was opened).
	Score float64 `json:"score"`
	// Opened marks that the placement powered on an unused PM.
	Opened bool `json:"opened,omitempty"`
	// Duplicate marks an idempotent replay: the VM was already placed
	// and no new decision was made. Seq is -1.
	Duplicate bool `json:"duplicate,omitempty"`
	// Seq is the WAL sequence number of the committed op; the response
	// is sent only after the op is durable (see API.md).
	Seq int64 `json:"seq"`
	// Assign is the concrete anti-collocation assignment.
	Assign []record.OpAssign `json:"assign,omitempty"`
}

// ReleaseRequest is the body of POST /v1/release.
type ReleaseRequest struct {
	// VM is the instance id to release.
	VM int `json:"vm"`
}

// ReleaseResponse is the body of a successful POST /v1/release.
type ReleaseResponse struct {
	// VM echoes the request id; PM is the host it was released from.
	VM int `json:"vm"`
	PM int `json:"pm"`
	// Seq is the WAL sequence number of the release op.
	Seq int64 `json:"seq"`
}

// EvictRequest is the body of POST /v1/evict: migrate one VM off a PM.
type EvictRequest struct {
	// PM is the overloaded source PM.
	PM int `json:"pm"`
	// VM optionally names the victim; when nil the rank evictor picks
	// the hosted VM whose removal most improves the source PM's rank.
	VM *int `json:"vm,omitempty"`
}

// EvictResponse is the body of a successful POST /v1/evict.
type EvictResponse struct {
	// VM is the migrated victim; From and To are source and destination
	// PMs.
	VM   int `json:"vm"`
	From int `json:"from"`
	To   int `json:"to"`
	// Seq is the WAL sequence number of the re-place op (the release op
	// precedes it).
	Seq int64 `json:"seq"`
}

// DrainRequest is the body of POST /v1/drain: evacuate every VM off a
// PM and retire it from the inventory (maintenance drain).
type DrainRequest struct {
	// PM is the machine to drain.
	PM int `json:"pm"`
}

// DrainMove is one migration performed by a drain.
type DrainMove struct {
	// VM is the moved instance; To is its new host.
	VM int `json:"vm"`
	To int `json:"to"`
}

// DrainResponse is the body of a successful POST /v1/drain.
type DrainResponse struct {
	// PM echoes the drained machine.
	PM int `json:"pm"`
	// Moves lists the migrations, in the order they were performed.
	Moves []DrainMove `json:"moves,omitempty"`
	// Retired confirms the PM left the inventory.
	Retired bool `json:"retired"`
	// Seq is the WAL sequence number of the retire op (every move's
	// release+place pair precedes it).
	Seq int64 `json:"seq"`
}

// ErrorResponse is the body of every non-2xx API response.
type ErrorResponse struct {
	// Code is a stable machine-readable cause (see API.md's table).
	Code string `json:"code"`
	// Error is a human-readable message.
	Error string `json:"error"`
}

// ClusterResponse is the body of GET /v1/cluster.
type ClusterResponse struct {
	// Shards reports per-shard state.
	Shards []ShardStatus `json:"shards"`
	// PMs, UsedPMs and VMs aggregate over shards; MaxUsed sums the
	// per-shard high-water marks.
	PMs     int `json:"pms"`
	UsedPMs int `json:"used_pms"`
	VMs     int `json:"vms"`
	MaxUsed int `json:"max_used"`
	// Retired counts PMs drained out of the inventory.
	Retired int `json:"retired"`
	// NextSeq is the next WAL sequence number.
	NextSeq int64 `json:"next_seq"`
	// Placements lists vm->pm pairs (ascending vm id) when the request
	// asked for ?vms=1.
	Placements []VMStatus `json:"placements,omitempty"`
}

// ShardStatus is one shard's row in ClusterResponse.
type ShardStatus struct {
	Shard   int `json:"shard"`
	PMs     int `json:"pms"`
	Used    int `json:"used"`
	VMs     int `json:"vms"`
	MaxUsed int `json:"max_used"`
	Retired int `json:"retired,omitempty"`
}

// VMStatus is one placed VM in ClusterResponse.Placements.
type VMStatus struct {
	VM int `json:"vm"`
	PM int `json:"pm"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	// Status is "ok", or "degraded" after a WAL write failure (the
	// server refuses mutations until restarted).
	Status string `json:"status"`
	// NextSeq is the next WAL sequence number.
	NextSeq int64 `json:"next_seq"`
	// Recovery summarizes what startup reconstructed.
	Recovery RecoveryInfo `json:"recovery"`
}

// Sentinel causes for evict/drain request routing (batch.go defines
// the admission-path sentinels).
var (
	errUnknownPM = errors.New("serve: unknown pm")
	errDraining  = errors.New("serve: pm is draining")
)

// routes wires the API and the in-process observability endpoints.
func (s *Server) routes() {
	s.mux.HandleFunc("/v1/place", s.mutation(s.met.requestSecs, s.handlePlace))
	s.mux.HandleFunc("/v1/release", s.mutation(s.met.requestSecs, s.handleRelease))
	s.mux.HandleFunc("/v1/evict", s.mutation(s.met.requestSecs, s.handleEvict))
	s.mux.HandleFunc("/v1/drain", s.mutation(s.met.drainSecs, s.handleDrain))
	s.mux.HandleFunc("/v1/cluster", s.handleCluster)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	if s.cfg.Obs != nil {
		oh := obs.Handler(s.cfg.Obs, s.cfg.Sink)
		s.mux.Handle("/metrics", oh)
		s.mux.Handle("/events", oh)
		s.mux.Handle("/debug/pprof/", oh)
	}
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // the client is gone if this fails
}

// writeError maps an error to the API's stable error codes.
func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, ErrorResponse{Code: code, Error: err.Error()})
}

// decodeBody decodes a JSON request body, rejecting unknown fields so
// client typos fail loudly.
func decodeBody(w http.ResponseWriter, body io.Reader, v any) bool {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("decode body: %w", err))
		return false
	}
	return true
}

// The body codec follows the op-line codec's rule (DESIGN.md §11): the
// place and release bodies and replies encoding/json writes are read and
// written by hand, and encoding/json decides everything else.

// bodyBufs pools the scratch a place or release request reads its body
// into and then writes its reply into.
var bodyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// readVMBody reads a place (withType) or release request: its canonical
// form directly, and any other body — whitespace, other key order or
// case, unknown fields, escapes, trailing bytes, more than buf holds —
// through decodeBody, which answers a body it rejects.
func readVMBody(w http.ResponseWriter, r *http.Request, buf []byte, withType bool) (vm int, typ string, ok bool) {
	n, err := io.ReadFull(r.Body, buf[:cap(buf)])
	body := buf[:n]
	if err == io.EOF || err == io.ErrUnexpectedEOF { // the whole body
		if vm, typ, ok = parseVMBody(body, withType); ok {
			return vm, typ, true
		}
	}
	rest := io.MultiReader(bytes.NewReader(body), r.Body)
	if withType {
		var req PlaceRequest
		ok = decodeBody(w, rest, &req)
		return req.VM, req.Type, ok
	}
	var req ReleaseRequest
	ok = decodeBody(w, rest, &req)
	return req.VM, "", ok
}

// parseVMBody recognises the body {"vm":N} and, with withType,
// {"vm":N,"type":"S"}: N an int of at most 18 digits without a leading
// zero or "-0", S bytes encoding/json reads as themselves. Then vm and
// typ are what decodeBody would yield; anything else is declined.
func parseVMBody(b []byte, withType bool) (vm int, typ string, ok bool) {
	b, ok = bytes.CutPrefix(b, []byte(`{"vm":`))
	n := 0
	for n < len(b) && (b[n]-'0' <= 9 || n == 0 && b[n] == '-') {
		n++
	}
	num := b[:n]
	if d := bytes.TrimPrefix(num, []byte("-")); !ok || len(d) == 0 || len(d) > 18 || d[0] == '0' && len(num) > 1 {
		return 0, "", false
	}
	vm, err := strconv.Atoi(string(num))
	b = b[n:]
	if rest, found := bytes.CutPrefix(b, []byte(`,"type":"`)); withType && found {
		i := bytes.IndexByte(rest, '"')
		if i < 0 {
			return 0, "", false
		}
		typ, b = string(rest[:i]), rest[i+1:]
	}
	if err != nil || string(b) != "}" || !record.JSONPlain(typ) {
		return 0, "", false
	}
	return vm, typ, true
}

// appendPlaceResponse appends what json.NewEncoder(w).Encode(v) writes,
// newline included. It declines (ok false) a reply encoding/json would
// escape a string of or refuse.
func appendPlaceResponse(b []byte, v *PlaceResponse) (_ []byte, ok bool) {
	if math.IsNaN(v.Score) || math.IsInf(v.Score, 0) || !record.JSONPlain(v.PMType) {
		return b, false
	}
	b = strconv.AppendInt(append(b, `{"vm":`...), int64(v.VM), 10)
	b = strconv.AppendInt(append(b, `,"pm":`...), int64(v.PM), 10)
	if v.PMType != "" {
		b = append(append(append(b, `,"pm_type":"`...), v.PMType...), '"')
	}
	b = record.AppendJSONFloat(append(b, `,"score":`...), v.Score)
	if v.Opened {
		b = append(b, `,"opened":true`...)
	}
	if v.Duplicate {
		b = append(b, `,"duplicate":true`...)
	}
	b = strconv.AppendInt(append(b, `,"seq":`...), v.Seq, 10)
	return append(record.AppendJSONAssign(b, v.Assign), "}\n"...), true
}

// appendReleaseResponse appends what json.NewEncoder(w).Encode(v)
// writes, newline included.
func appendReleaseResponse(b []byte, v *ReleaseResponse) []byte {
	b = strconv.AppendInt(append(b, `{"vm":`...), int64(v.VM), 10)
	b = strconv.AppendInt(append(b, `,"pm":`...), int64(v.PM), 10)
	b = strconv.AppendInt(append(b, `,"seq":`...), v.Seq, 10)
	return append(b, "}\n"...)
}

// jsonContentType is writeJSON's Content-Type value, shared by every
// codec reply instead of allocated per reply: header values are
// replaced, never written through.
var jsonContentType = []string{"application/json"}

// writeBody sends a 200 whose body the codec wrote, with the header
// writeJSON sends.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // the client is gone if this fails
}

// mutation wraps a mutating handler: its latency goes to secs, and it
// runs only for a POST while the server is neither shutting down nor
// degraded — and to its end once begun, which halt waits for.
func (s *Server) mutation(secs *obs.Histogram, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		defer func() { secs.Observe(time.Since(start).Seconds()) }()
		s.mutating.RLock()
		defer s.mutating.RUnlock()
		switch {
		case r.Method != http.MethodPost:
			writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", errors.New("POST required"))
		case s.stopping():
			writeError(w, http.StatusServiceUnavailable, "shutting_down", errShutdown)
		case s.walBroken.Load():
			writeError(w, http.StatusServiceUnavailable, "wal_failed", errWALFailed)
		default:
			h(w, r)
		}
	}
}

// handlePlace serves POST /v1/place.
func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request) {
	buf := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(buf)
	id, typ, ok := readVMBody(w, r, *buf, true)
	if !ok {
		return
	}
	s.met.placeReqs.Inc()
	vm, err := s.cfg.NewVM(id, typ)
	if err != nil {
		writeError(w, http.StatusBadRequest, "unknown_type", err)
		return
	}
	res := s.submitPlace(vm, nil)
	if res.err != nil {
		s.writePlaceError(w, res.err)
		return
	}
	if *buf, ok = appendPlaceResponse((*buf)[:0], &res.PlaceResponse); !ok {
		writeJSON(w, http.StatusOK, res.PlaceResponse)
		return
	}
	writeBody(w, *buf)
}

// writePlaceError maps admission-path errors to status codes.
func (s *Server) writePlaceError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, placement.ErrNoCapacity):
		writeError(w, http.StatusConflict, "no_capacity", err)
	case errors.Is(err, errOverloaded):
		writeError(w, http.StatusServiceUnavailable, "overloaded", err)
	case errors.Is(err, errWALFailed):
		writeError(w, http.StatusServiceUnavailable, "wal_failed", err)
	default:
		writeError(w, http.StatusInternalServerError, "internal", err)
	}
}

// handleRelease serves POST /v1/release. Releases never forward, so
// one shard lock plus a flush is the whole transaction.
func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	buf := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(buf)
	id, _, ok := readVMBody(w, r, *buf, false)
	if !ok {
		return
	}
	s.met.releaseReqs.Inc()
	pmID, seq, err := s.release(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "not_placed", err)
		return
	}
	if err := s.barrier(); err != nil {
		s.writePlaceError(w, err)
		return
	}
	*buf = appendReleaseResponse((*buf)[:0], &ReleaseResponse{VM: id, PM: pmID, Seq: seq})
	writeBody(w, *buf)
}

// release removes a VM under its host shard's lock and commits the
// release op. loc only picks the shard; the PM is whatever the cluster
// holds the VM on once the lock is held. The caller passes the barrier.
func (s *Server) release(vmID int) (pmID int, seq int64, err error) {
	e, ok := s.loc.load(vmID)
	if !ok {
		return 0, 0, fmt.Errorf("serve: vm %d not placed", vmID)
	}
	sh := s.shards[e.shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, pm, seq, err := s.releaseLocked(sh, vmID, nil)
	if err != nil {
		return 0, 0, err
	}
	return pm.ID, seq, nil
}

// releaseLocked is the one release path, shared by /v1/release, evict
// and drain: under sh.mu, find the PM the cluster holds the VM on —
// which must be on when on is non-nil — and commit the release op
// naming it. A descheduler move may have re-homed the VM since the
// caller last looked, which is why the PM is resolved here, under the
// lock, and nowhere earlier.
func (s *Server) releaseLocked(sh *shard, vmID int, on *placement.PM) (placement.Hosted, *placement.PM, int64, error) {
	pm, ok := sh.cluster.Locate(vmID)
	if !ok {
		return placement.Hosted{}, nil, 0, fmt.Errorf("serve: vm %d not placed", vmID)
	}
	if on != nil && pm != on {
		return placement.Hosted{}, nil, 0, fmt.Errorf("serve: vm %d not on pm %d", vmID, on.ID)
	}
	hosted, _ := pm.Get(vmID) // located on pm, so hosted there
	h, seq, err := s.commit(record.Op{
		Kind:   record.OpRelease,
		VM:     vmID,
		VMType: hosted.VM.Type,
		PM:     pm.ID,
	}, placement.Hosted{})
	return h, pm, seq, err
}

// handleEvict serves POST /v1/evict: release a victim from the source
// PM (rank-evictor choice unless the request names one), then re-place
// it anywhere else through the normal admission path. The WAL records
// the migration as a release op followed by a place op; if re-placement
// fails the victim is restored to its source with a compensating place
// op, so the log never ends mid-migration in an unexplained state.
func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) {
	var req EvictRequest
	if !decodeBody(w, r.Body, &req) {
		return
	}
	s.met.evictReqs.Inc()

	sh := s.shards[s.pmShard(req.PM)]
	hosted, pm, err := s.evictVictim(sh, req.PM, req.VM)
	if err != nil {
		switch {
		case errors.Is(err, errUnknownPM):
			writeError(w, http.StatusNotFound, "unknown_pm", err)
		case errors.Is(err, errDraining):
			writeError(w, http.StatusConflict, "draining", err)
		default:
			writeError(w, http.StatusNotFound, "no_victim", err)
		}
		return
	}
	// A barrier between the migration's two halves: a WAL that cannot
	// take the release stops the evict here, before any re-place.
	if err := s.barrier(); err != nil {
		s.writePlaceError(w, err)
		return
	}

	res, err := s.replaceOrRestore(sh, pm, hosted)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", err)
		return
	}
	if res.err != nil {
		writeError(w, http.StatusConflict, "no_capacity",
			fmt.Errorf("serve: no destination for vm %d; restored to pm %d", hosted.VM.ID, pm.ID))
		return
	}
	writeJSON(w, http.StatusOK, EvictResponse{VM: hosted.VM.ID, From: pm.ID, To: res.PM, Seq: res.Seq})
}

// evictVictim resolves the source PM, picks the victim (or takes the
// one named), and releases it — all under the shard lock, because
// sh.pms shrinks when a drain retires a PM. A draining (cordoned) source
// is refused: the drain is already moving every VM off it.
func (s *Server) evictVictim(sh *shard, pmID int, want *int) (placement.Hosted, *placement.PM, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	pm, ok := sh.pms[pmID]
	if !ok {
		return placement.Hosted{}, nil, fmt.Errorf("%w: pm %d not in inventory", errUnknownPM, pmID)
	}
	if pm.Cordoned() {
		return placement.Hosted{}, nil, fmt.Errorf("%w: pm %d", errDraining, pmID)
	}
	var victim int
	if want != nil {
		victim = *want
	} else {
		// All dimensions count as overloaded: pick the hosted VM whose
		// removal most improves the source PM's rank.
		dims := make([]int, pm.Shape.NumDims())
		for i := range dims {
			dims[i] = i
		}
		ev := placement.RankEvictor{Placer: sh.placer}
		if victim, ok = ev.SelectVictim(pm, dims); !ok {
			return placement.Hosted{}, nil, fmt.Errorf("serve: pm %d hosts no evictable VM", pm.ID)
		}
	}
	h, _, _, err := s.releaseLocked(sh, victim, pm)
	return h, pm, err
}

// replaceOrRestore finishes a migration evict or drain began by
// releasing h off pm: re-place the VM through the normal admission
// path, anywhere but pm. When that fails (the returned result's err)
// the VM goes back on pm with its original assignment through a
// compensating place op, durable before this returns — under the shard
// lock, shard.mu -> wal.mu. The error return means the compensation
// itself failed and the VM is hosted nowhere.
func (s *Server) replaceOrRestore(sh *shard, pm *placement.PM, h placement.Hosted) (placeResult, error) {
	res := s.submitPlace(h.VM, pm)
	if res.err == nil {
		return res, nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, _, err := s.commit(record.Op{
		Kind:   record.OpPlace,
		VM:     h.VM.ID,
		VMType: h.VM.Type,
		PM:     pm.ID,
		PMType: pm.Type,
		Assign: record.AssignOf(h.Assign),
	}, h)
	if err == nil {
		err = s.barrier()
	}
	if err != nil {
		return res, fmt.Errorf("re-place of vm %d failed (%v) and restore failed: %w", h.VM.ID, res.err, err)
	}
	return res, nil
}

// handleDrain serves POST /v1/drain: a maintenance drain. The PM is
// cordoned (placers stop offering it), every hosted VM is re-placed
// through the normal admission path — each move a release+place op
// pair in the WAL — and the emptied PM is retired from the inventory
// with a final retire op. If any VM has no destination the drain
// aborts: the VM is restored to its source, the PM is uncordoned and
// stays in service (already-moved VMs stay moved), and the client gets
// 409. The cordon itself is not persisted — a crash mid-drain recovers
// to a consistent, partially drained, uncordoned PM — but a completed
// retirement is durable.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	var req DrainRequest
	if !decodeBody(w, r.Body, &req) {
		return
	}
	s.met.drainReqs.Inc()

	// One drain at a time: two concurrent drains could each need the
	// other's capacity and livelock against their compensation paths.
	s.drainMu.Lock()
	defer s.drainMu.Unlock()

	sh := s.shards[s.pmShard(req.PM)]
	pm, ids, err := s.cordonPM(sh, req.PM)
	if err != nil {
		writeError(w, http.StatusNotFound, "unknown_pm", err)
		return
	}

	var moves []DrainMove
	for _, vmID := range ids {
		sh.mu.Lock()
		h, _, _, err := s.releaseLocked(sh, vmID, pm)
		sh.mu.Unlock()
		if err != nil {
			continue // the client released it after the cordon: the goal is an empty PM
		}
		res, err := s.replaceOrRestore(sh, pm, h)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "internal", err)
			return
		}
		if res.err != nil {
			// Compensated: the VM is back, the PM stays in service.
			s.uncordon(sh, pm)
			if errors.Is(res.err, placement.ErrNoCapacity) {
				writeError(w, http.StatusConflict, "no_capacity",
					fmt.Errorf("serve: drain of pm %d: no destination for vm %d; pm stays in service", pm.ID, vmID))
				return
			}
			s.writePlaceError(w, res.err)
			return
		}
		moves = append(moves, DrainMove{VM: vmID, To: res.PM})
	}

	sh.mu.Lock()
	_, seq, err := s.commit(record.Op{Kind: record.OpRetire, PM: pm.ID, PMType: pm.Type}, placement.Hosted{})
	sh.mu.Unlock()
	if err != nil {
		// Something re-hosted onto the PM between the last move and the
		// retire (an evict compensation, at worst). Leave it in service.
		s.uncordon(sh, pm)
		writeError(w, http.StatusConflict, "conflict", err)
		return
	}
	if err := s.barrier(); err != nil {
		s.writePlaceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, DrainResponse{PM: req.PM, Moves: moves, Retired: true, Seq: seq})
}

// cordonPM resolves and cordons the PM under the shard lock, returning
// its hosted VM ids (ascending — the drain's move order).
func (s *Server) cordonPM(sh *shard, pmID int) (*placement.PM, []int, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	pm, ok := sh.pms[pmID]
	if !ok {
		return nil, nil, fmt.Errorf("%w: pm %d not in inventory", errUnknownPM, pmID)
	}
	pm.SetCordoned(true)
	return pm, pm.VMIDs(), nil
}

// uncordon returns a PM to service under the shard lock.
func (s *Server) uncordon(sh *shard, pm *placement.PM) {
	sh.mu.Lock()
	pm.SetCordoned(false)
	sh.mu.Unlock()
}

// handleCluster serves GET /v1/cluster.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", errors.New("GET required"))
		return
	}
	resp := ClusterResponse{NextSeq: s.wal.nextSeq()}
	wantVMs := r.URL.Query().Get("vms") == "1"
	for _, sh := range s.shards {
		sh.mu.Lock()
		st := ShardStatus{
			Shard:   sh.idx,
			PMs:     len(sh.cluster.PMs()),
			Used:    sh.cluster.NumUsed(),
			VMs:     sh.cluster.NumVMs(),
			MaxUsed: sh.cluster.MaxUsed,
			Retired: len(sh.retired),
		}
		if wantVMs {
			for _, pm := range sh.cluster.UsedPMs() {
				for _, h := range pm.HostedVMs() {
					resp.Placements = append(resp.Placements, VMStatus{VM: h.VM.ID, PM: pm.ID})
				}
			}
		}
		sh.mu.Unlock()
		resp.Shards = append(resp.Shards, st)
		resp.PMs += st.PMs
		resp.UsedPMs += st.Used
		resp.VMs += st.VMs
		resp.MaxUsed += st.MaxUsed
		resp.Retired += st.Retired
	}
	if wantVMs {
		sort.Slice(resp.Placements, func(i, j int) bool { return resp.Placements[i].VM < resp.Placements[j].VM })
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.walBroken.Load() {
		status = "degraded"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, HealthResponse{
		Status:   status,
		NextSeq:  s.wal.nextSeq(),
		Recovery: s.recovered,
	})
}
