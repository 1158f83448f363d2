// Package serve turns the placement library into a long-running
// placement-as-a-service daemon: an HTTP/JSON API over sharded cluster
// state with write-ahead-log durability and snapshot-based crash
// recovery (DESIGN.md §14, API.md).
//
// Concurrency model. The placement types (placement.Cluster,
// placement.PageRankVM) are single-threaded by design; the daemon gets
// parallelism by partitioning the PM inventory into shards keyed by a
// hash of the PM id, each shard owning an independent cluster, placer
// and mutex. A placement request is routed to a home shard by VM-id
// hash and decided and committed on the request's own goroutine under
// that shard's lock; when the home shard has no capacity, the next
// shards in ring order are tried, one lock at a time. A VM therefore
// need not live on its home shard: one VM directory, a plain map behind
// a read-write mutex written only where state changes, tells the
// duplicate check and release routing which shard holds it. A place
// claims its VM id in the directory before the ring walk, so two
// places of one id never commit on two shards.
//
// Durability model. Every accepted mutation is appended to a WAL — an
// ordinary internal/obs/record recording whose entries are record.Op
// lines — under the owning shard's lock, so per-PM WAL order equals
// apply order. A request is acknowledged only after a WAL flush that
// covers its op (fsynced when configured, along with the directory
// entries of new WAL segments and snapshots). One flush makes durable
// every op appended before it, whichever request appended it: group
// commit happens there, not in a queue. Periodic snapshots bound
// replay time; recovery loads the newest snapshot and replays the WAL
// tail, reconstructing bit-identical cluster state including the
// used/unused list orders Algorithm 2 is sensitive to.
package serve

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pagerankvm/internal/deschedule"
	"pagerankvm/internal/obs"
	"pagerankvm/internal/obs/record"
	"pagerankvm/internal/placement"
	"pagerankvm/internal/ranktable"
)

// Config parameterizes a Server. Rankers, PMs and NewVM are required;
// zero values elsewhere select the documented defaults.
type Config struct {
	// Rankers resolves a PM type to its rank table (shared, read-only;
	// ranktable rankers are safe for concurrent readers).
	Rankers *ranktable.Registry
	// PMs is the PM inventory. Inventory order is preserved per shard:
	// shard i's cluster sees its PMs in the order they appear here.
	PMs []*placement.PM
	// NewVM materializes a placement request for a VM instance of a
	// catalog type — typically experiments.Catalog.NewVM. It is called
	// on the request path and during recovery, and must be safe for
	// concurrent use.
	NewVM func(id int, vmType string) (*placement.VM, error)
	// Shards is the number of state shards (default 4).
	Shards int
	// Seed seeds each shard's placer rng (tie-breaking); shard i uses
	// Seed+i. Default 1.
	Seed int64
	// DataDir enables durability: WAL segments and snapshots live here.
	// Empty means in-memory only (no WAL, no recovery), in which case
	// acknowledged seqs are still assigned but nothing is persisted.
	DataDir string
	// Fsync forces an fsync at every WAL flush. Off by default:
	// the default barrier is a buffered flush to the OS page cache,
	// which survives process crashes but not machine crashes.
	Fsync bool
	// SnapshotEvery triggers a snapshot after that many WAL ops
	// (default 65536; 0 keeps the default, negative disables periodic
	// snapshots — a final snapshot is still cut on graceful Close).
	SnapshotEvery int64
	// Obs receives the daemon's metrics; nil disables instrumentation.
	Obs *obs.Observer
	// Sink, when non-nil, backs the /events endpoint.
	Sink *obs.RingSink
	// RebalanceEvery, when positive, runs a background descheduler
	// round (RebalanceNow) at that period. Zero disables the loop;
	// RebalanceNow stays available for operator- or test-driven rounds.
	RebalanceEvery time.Duration
	// Rebalance parameterizes the per-shard descheduler engines
	// (budgets, gain margin, drain threshold). Obs defaults to this
	// Config's Obs; Recorder and OnMove are owned by the daemon (moves
	// go to the WAL) and must be left unset.
	Rebalance deschedule.Config
}

// queueDepth bounds the place requests in flight per home shard; one
// more is refused with 503 overloaded.
const queueDepth = 1024

// locEntry is the VM directory's value: which shard and PM host a
// placed VM. The directory exists so duplicate detection and release
// routing never lock a shard just to find out where a VM lives; the
// shard's cluster stays the truth, resolved under its lock.
type locEntry struct {
	shard int
	pm    int
}

// directory maps every placed VM id to its locEntry: state derived from
// the clusters. It is written only by commit and the descheduler's
// OnMove hook, both under the lock of the shard the write concerns
// (lock order shard.mu -> directory.mu), and by recovery's rebuild; it
// is read lock-free of shards by release routing.
//
// It also holds the claims of the places in flight: the duplicate check
// is claim, under the directory lock and before any shard lock, and a
// claim lasts until the place commits (store) or fails (unclaim). So
// the check and the commit are one decision per VM id, whichever shards
// the place visits on its way.
type directory struct {
	mu sync.RWMutex
	m  map[int]locEntry
	// claims holds the ids a place is in flight for; settled, whose L is
	// &mu, wakes the places waiting for one to end.
	claims  map[int]struct{}
	settled sync.Cond
}

// claim reports where vm lives when it is placed. Otherwise it records
// a claim on the id for the caller's place, after waiting out any place
// of the id already in flight.
func (d *directory) claim(vm int) (locEntry, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if e, ok := d.m[vm]; ok {
			return e, true
		}
		if _, held := d.claims[vm]; !held {
			d.claims[vm] = struct{}{}
			return locEntry{}, false
		}
		d.settled.Wait()
	}
}

// unclaim ends the claim of a place that committed nothing.
func (d *directory) unclaim(vm int) {
	d.mu.Lock()
	delete(d.claims, vm)
	d.mu.Unlock()
	d.settled.Broadcast()
}

func (d *directory) load(vm int) (locEntry, bool) {
	d.mu.RLock()
	e, ok := d.m[vm]
	d.mu.RUnlock()
	return e, ok
}

// store records where vm lives; a place's store ends its claim.
func (d *directory) store(vm int, e locEntry) {
	d.mu.Lock()
	d.m[vm] = e
	delete(d.claims, vm)
	d.mu.Unlock()
	d.settled.Broadcast()
}

func (d *directory) delete(vm int) {
	d.mu.Lock()
	delete(d.m, vm)
	d.mu.Unlock()
}

// rebuild replaces the directory with the clusters' view; recovery runs
// alone. A VM hosted by two shards is corrupt durable state — no live
// path places one, since a place claims its id first, and the
// directory could route to only one of them — so it is an error naming
// both hosts.
func (d *directory) rebuild(shards []*shard) error {
	n := 0
	for _, sh := range shards {
		n += sh.cluster.NumVMs()
	}
	m := make(map[int]locEntry, n)
	for _, sh := range shards {
		for _, pm := range sh.cluster.UsedPMs() {
			for _, h := range pm.HostedVMs() {
				if e, dup := m[h.VM.ID]; dup {
					return fmt.Errorf("vm %d is hosted on pm %d (shard %d) and on pm %d (shard %d)",
						h.VM.ID, e.pm, e.shard, pm.ID, sh.idx)
				}
				m[h.VM.ID] = locEntry{shard: sh.idx, pm: pm.ID}
			}
		}
	}
	d.m = m
	return nil
}

// shard is one partition of the datacenter: a cluster over a subset of
// the PM inventory, a dedicated placer (placer binding caches and rngs
// are not concurrency-safe), and the count of place requests homed on
// it that are in flight. All cluster and placer access happens under
// mu.
type shard struct {
	idx      int
	mu       sync.Mutex
	cluster  *placement.Cluster
	placer   *placement.PageRankVM
	pms      map[int]*placement.PM // by PM id, for replay and evict routing
	inflight atomic.Int32
	engine   *deschedule.Engine
	// retired lists PM ids drained out of this shard's inventory, in
	// retirement order. It is part of durable state: snapshots carry it
	// so recovery re-retires before re-hosting.
	retired []int
}

// serveMetrics bundles the daemon's obs instruments.
type serveMetrics struct {
	placeReqs   *obs.Counter
	placeDups   *obs.Counter
	placeRejs   *obs.Counter
	releaseReqs *obs.Counter
	evictReqs   *obs.Counter
	drainReqs   *obs.Counter
	forwards    *obs.Counter
	walErrors   *obs.Counter
	snapshots   *obs.Counter
	batchSize   *obs.Histogram
	placeSecs   *obs.Histogram
	requestSecs *obs.Histogram
	drainSecs   *obs.Histogram
}

// Server is the placement daemon: sharded cluster state, a WAL, and an
// http.Handler exposing the v1 API. Create one with New, serve it with
// net/http, stop it with Close (graceful: final snapshot) or Kill
// (crash simulation: no snapshot, WAL is the only truth).
type Server struct {
	cfg    Config
	shards []*shard
	loc    directory
	wal    *wal
	mux    *http.ServeMux
	met    serveMetrics

	stop      chan struct{}
	stopOnce  sync.Once
	wg        sync.WaitGroup
	walBroken atomic.Bool
	// mutating is read-held by each mutating request for its whole
	// length; halt write-locks it to wait them out.
	mutating sync.RWMutex

	// drainMu serializes maintenance drains: a drain cordons its PM and
	// walks every hosted VM through the admission path, and two
	// concurrent drains could deadlock capacity against each other.
	drainMu sync.Mutex

	snapInFlight atomic.Bool
	opsSinceSnap atomic.Int64
	snapCh       chan struct{}

	recovered RecoveryInfo

	// betweenVisits, when set, runs after a shard visit of the ring walk
	// found no capacity and before the next: a test-only seam that fixes
	// an interleaving of racing places. Nil in service.
	betweenVisits func()
}

// RecoveryInfo summarizes what New reconstructed from DataDir.
type RecoveryInfo struct {
	// SnapshotSeq is the seq the loaded snapshot was cut at (0 when no
	// snapshot existed).
	SnapshotSeq int64 `json:"snapshot_seq"`
	// ReplayedOps counts WAL ops applied on top of the snapshot.
	ReplayedOps int `json:"replayed_ops"`
	// NextSeq is the first seq the recovered server will assign.
	NextSeq int64 `json:"next_seq"`
	// VMs is the number of placed VMs after recovery.
	VMs int `json:"vms"`
	// Truncated reports that the final WAL segment ended in a torn line
	// (a crash mid-write); the torn suffix was discarded. Torn entries
	// were never acknowledged — the flush barrier acknowledges only
	// fully written ops — so discarding them is correct, not lossy.
	Truncated bool `json:"truncated,omitempty"`
	// SnapshotLoadSeconds and ReplaySeconds time recovery's two halves:
	// load and apply the snapshot, then read and apply the WAL tail.
	SnapshotLoadSeconds float64 `json:"snapshot_load_seconds"`
	ReplaySeconds       float64 `json:"replay_seconds"`
	// SlowLines counts WAL op lines not in the form the daemon writes,
	// decoded ~10x slower through encoding/json. Nonzero on an untouched
	// WAL means a type name needs a JSON escape on every line naming it.
	SlowLines int `json:"slow_lines"`
}

// New builds a Server: partitions the inventory into shards, recovers
// state from cfg.DataDir when set (snapshot + WAL tail replay), opens a
// fresh WAL segment, and starts the background snapshot and rebalance
// loops it is configured for.
func New(cfg Config) (*Server, error) {
	if cfg.Rankers == nil || cfg.NewVM == nil || len(cfg.PMs) == 0 {
		return nil, fmt.Errorf("serve: Rankers, PMs and NewVM are required")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 65536
	}

	s := &Server{cfg: cfg, stop: make(chan struct{}), snapCh: make(chan struct{}, 1)}
	s.loc.m, s.loc.claims = make(map[int]locEntry), make(map[int]struct{})
	s.loc.settled.L = &s.loc.mu
	s.initMetrics(cfg.Obs)

	// Partition the inventory. Within a shard, PMs keep inventory order
	// — the unused-list order Algorithm 2's open step scans.
	perShard := make([][]*placement.PM, cfg.Shards)
	for _, pm := range cfg.PMs {
		i := int(hashID(pm.ID) % uint32(cfg.Shards))
		perShard[i] = append(perShard[i], pm)
	}
	s.shards = make([]*shard, cfg.Shards)
	for i, pms := range perShard {
		sh := &shard{
			idx:     i,
			cluster: placement.NewCluster(pms),
			placer: placement.NewPageRankVM(cfg.Rankers,
				placement.WithSeed(cfg.Seed+int64(i)),
				placement.WithObserver(cfg.Obs)),
			pms: make(map[int]*placement.PM, len(pms)),
		}
		for _, pm := range pms {
			sh.pms[pm.ID] = pm
		}
		s.shards[i] = sh
	}

	// One descheduler engine per shard, sharing the shard's placer so
	// rebalance moves draw from the same rank tables and seeded rng as
	// admission. The engine applies its moves to the cluster itself, so
	// OnMove is log-only — the one site besides commit that appends to
	// the WAL or edits loc. It runs inside Rebalance, under the shard
	// lock, so the appends follow the shard.mu -> wal.mu lock order.
	for _, sh := range s.shards {
		sh := sh
		rcfg := cfg.Rebalance
		if rcfg.Obs == nil {
			rcfg.Obs = cfg.Obs
		}
		rcfg.Recorder = nil
		rcfg.OnMove = func(m deschedule.Move) {
			for _, op := range m.Ops() {
				s.wal.appendOp(op)
			}
			s.loc.store(m.VM, locEntry{shard: sh.idx, pm: m.To})
		}
		sh.engine = deschedule.New(sh.placer, rcfg)
	}

	nextSeq := int64(0)
	if cfg.DataDir != "" {
		info, err := s.recover(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		s.recovered = info
		nextSeq = info.NextSeq
		cfg.Obs.Histogram("serve.recovery_seconds", obs.DefSecondsBuckets()).Observe(info.SnapshotLoadSeconds + info.ReplaySeconds)
		cfg.Obs.Gauge("serve.recovery_replayed_ops").Set(int64(info.ReplayedOps))
		cfg.Obs.Gauge("serve.recovery_slow_lines").Set(int64(info.SlowLines))
	}
	w, err := openWAL(cfg.DataDir, nextSeq, cfg.Fsync)
	if err != nil {
		return nil, err
	}
	s.wal = w

	s.mux = http.NewServeMux()
	s.routes()

	if cfg.DataDir != "" && cfg.SnapshotEvery > 0 {
		s.wg.Add(1)
		go s.snapshotter(s.stop)
	}
	if cfg.RebalanceEvery > 0 {
		s.wg.Add(1)
		go s.rebalancer(cfg.RebalanceEvery, s.stop)
	}
	return s, nil
}

// rebalancer runs one descheduler round per period until shutdown.
func (s *Server) rebalancer(period time.Duration, stop <-chan struct{}) {
	defer s.wg.Done()
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_, _ = s.RebalanceNow() // errors surface via serve.wal_errors / healthz
		case <-stop:
			return
		}
	}
}

// RebalanceNow runs one descheduler round on every shard and returns
// the summed stats. Each shard's round runs under its lock (rebalancing
// never crosses shards — admission's ring forwarding handles cross-shard
// spill), its release+place op pairs go through the WAL via the
// engines' OnMove hook, and the round is flushed before the next shard
// starts. Refused while shutting down — checked under each shard's
// lock, which halt takes once before the WAL closes — or after a WAL
// failure.
func (s *Server) RebalanceNow() (deschedule.RoundStats, error) {
	var total deschedule.RoundStats
	if s.walBroken.Load() {
		return total, errWALFailed
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		if s.stopping() {
			sh.mu.Unlock()
			return total, errShutdown
		}
		st := sh.engine.Rebalance(sh.cluster)
		var err error
		if st.Moves > 0 {
			// The barrier runs under the shard lock (shard.mu -> wal.mu):
			// the moves must be durable before the shard accepts
			// interleaving mutations.
			err = s.barrier()
		}
		sh.mu.Unlock()
		if err != nil {
			return total, err
		}
		total.Add(st)
	}
	return total, nil
}

// snapshotter cuts a snapshot whenever the commit paths signal that
// SnapshotEvery ops have accumulated since the last cut. Running it on
// a dedicated goroutine keeps the (all-shard-quiescing) cut off the
// request paths.
func (s *Server) snapshotter(stop <-chan struct{}) {
	defer s.wg.Done()
	for {
		select {
		case <-s.snapCh:
			_ = s.Snapshot() // errors surface via serve.wal_errors / healthz on the next mutation
		case <-stop:
			return
		}
	}
}

// barrier is the one durability barrier: flush the WAL (fsync when
// configured), degrade the server when that fails — state may be ahead
// of the log, so every later mutation is refused — and count the ops
// the flush made durable toward the periodic snapshot trigger and into
// serve.batch_size. Nothing is acknowledged before the barrier covering
// its ops returns nil.
func (s *Server) barrier() error {
	n, err := s.wal.flush()
	if err != nil {
		s.walBroken.Store(true)
		s.met.walErrors.Inc()
		return errWALFailed
	}
	if n > 0 {
		s.met.batchSize.Observe(float64(n))
	}
	if n > 0 && s.cfg.DataDir != "" && s.cfg.SnapshotEvery > 0 &&
		s.opsSinceSnap.Add(n) >= s.cfg.SnapshotEvery {
		select {
		case s.snapCh <- struct{}{}:
		default: // a cut is already pending
		}
	}
	return nil
}

func (s *Server) initMetrics(o *obs.Observer) {
	s.met = serveMetrics{
		placeReqs:   o.Counter("serve.place_requests"),
		placeDups:   o.Counter("serve.place_duplicates"),
		placeRejs:   o.Counter("serve.place_rejected"),
		releaseReqs: o.Counter("serve.release_requests"),
		evictReqs:   o.Counter("serve.evict_requests"),
		drainReqs:   o.Counter("serve.drain_requests"),
		forwards:    o.Counter("serve.place_forwards"),
		walErrors:   o.Counter("serve.wal_errors"),
		snapshots:   o.Counter("serve.snapshots"),
		batchSize:   o.Histogram("serve.batch_size", obs.LinearBuckets(1, 8, 16)),
		placeSecs:   o.Histogram("serve.place_seconds", obs.DefSecondsBuckets()),
		requestSecs: o.Histogram("serve.request_seconds", obs.DefSecondsBuckets()),
		drainSecs:   o.Histogram("deschedule.drain_seconds", obs.DefSecondsBuckets()),
	}
}

// Recovery returns what New reconstructed from the data directory (the
// zero value for a fresh or in-memory server).
func (s *Server) Recovery() RecoveryInfo { return s.recovered }

// NextSeq returns the seq the next accepted op will be assigned.
func (s *Server) NextSeq() int64 { return s.wal.nextSeq() }

// NumShards returns the number of state shards the server runs.
func (s *Server) NumShards() int { return len(s.shards) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close shuts the server down gracefully: mutations stop being
// accepted, the background loops exit, a final snapshot is cut (when
// durable), and the WAL is closed.
func (s *Server) Close() error {
	s.halt()
	var err error
	if s.cfg.DataDir != "" && !s.walBroken.Load() {
		err = s.Snapshot()
	}
	if cerr := s.wal.close(); err == nil {
		err = cerr
	}
	return err
}

// Kill stops the server abruptly, skipping the final snapshot: the WAL
// alone must carry the state into the next startup. It exists for
// crash-recovery testing.
func (s *Server) Kill() {
	s.halt()
	_ = s.wal.close() // a torn tail is the scenario under test
}

// halt closes stop and waits out everything that may still append to
// the WAL: the background loops, every mutating request in flight —
// each finishes, barrier included, and later ones see stop — and then,
// by taking every shard lock once, a RebalanceNow caller's round. The
// WAL may close when it returns.
func (s *Server) halt() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
	s.mutating.Lock()
	s.mutating.Unlock()
	for _, sh := range s.shards {
		sh.mu.Lock() // an empty critical section: it waits out the commit in progress
		sh.mu.Unlock()
	}
}

// stopping reports whether shutdown has begun.
func (s *Server) stopping() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// hashID spreads integer ids across shards (FNV-1a over the little-
// endian bytes).
func hashID(id int) uint32 {
	h := uint32(2166136261)
	v := uint64(id)
	for i := 0; i < 8; i++ {
		h ^= uint32(v & 0xff)
		h *= 16777619
		v >>= 8
	}
	return h
}

// pmShard returns the shard index owning a PM id.
func (s *Server) pmShard(pmID int) int { return int(hashID(pmID) % uint32(len(s.shards))) }

// vmShard returns a VM id's home shard — where its placement is tried
// first.
func (s *Server) vmShard(vmID int) int { return int(hashID(vmID) % uint32(len(s.shards))) }

// apply is the one function that changes the daemon's state: the only
// caller of Cluster.Host, Release and Retire and the only editor of
// sh.pms and sh.retired (not of the derived directory). WAL replay,
// snapshot load and the live path (through commit) all go through it,
// so what recovery rebuilds is what serving built. The live path hands
// in the VM and assignment it already materialised for a place; with a
// zero h they are rebuilt from, not aliased to, the op. It returns the
// hosting record placed or released. Callers hold the lock of the
// shard owning op.PM (recovery is single-threaded).
func (s *Server) apply(op record.Op, h placement.Hosted) (placement.Hosted, error) {
	sh := s.shards[s.pmShard(op.PM)]
	if op.Kind == record.OpRelease {
		return sh.cluster.Release(op.VM)
	}
	pm, ok := sh.pms[op.PM]
	if !ok {
		return h, fmt.Errorf("%w: pm %d not in inventory", errUnknownPM, op.PM)
	}
	switch op.Kind {
	case record.OpPlace:
		if h.VM == nil {
			vm, err := s.cfg.NewVM(op.VM, op.VMType)
			if err != nil {
				return h, err
			}
			h = placement.Hosted{VM: vm, Assign: record.Assignment(op.Assign)}
		}
		if err := sh.cluster.Host(pm, h.VM, h.Assign); err != nil {
			return h, err
		}
	case record.OpRetire:
		if err := sh.cluster.Retire(pm); err != nil {
			return h, err
		}
		delete(sh.pms, op.PM)
		sh.retired = append(sh.retired, op.PM)
	default:
		return h, fmt.Errorf("serve: unknown op kind %q", op.Kind)
	}
	return h, nil
}

// commit is the live path's state change: apply the op, keep the VM
// directory in step, then append the op to the WAL — so the log records
// exactly what was applied — all under the owning shard's lock, which
// keeps per-PM WAL order equal to apply order. It returns the op's seq;
// the caller runs barrier before acknowledging it.
func (s *Server) commit(op record.Op, h placement.Hosted) (placement.Hosted, int64, error) {
	h, err := s.apply(op, h)
	if err != nil {
		return h, 0, err
	}
	switch op.Kind {
	case record.OpPlace:
		s.loc.store(op.VM, locEntry{shard: s.pmShard(op.PM), pm: op.PM})
	case record.OpRelease:
		s.loc.delete(op.VM)
	}
	return h, s.wal.appendOp(op), nil
}
