package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pagerankvm/internal/obs"
	"pagerankvm/internal/ranktable"
	"pagerankvm/internal/serve"
)

// Fixed environment of the serve workloads (README "Fixed
// environment"): two state shards on the sandbox's two cores, and four
// closed-loop clients. Two clients leave the cores half idle, and the
// latency of a whole run is then set by which wake-up path the
// scheduler settles into (place p50 flips between ~30 and ~58 µs from
// run to run); four keep both cores busy, and the numbers repeat.
const (
	serveShards  = 2
	serveClients = 4
)

// serveSizes is the input size of one serve workload.
type serveSizes struct {
	// pmsPerType sizes the inventory (two catalog PM types).
	pmsPerType int
	// fillVMs are placed sequentially on one connection during set-up.
	fillVMs int
	// setupReps is how many times set-up is repeated (fresh registry,
	// server and fill each time); the last one is measured. The fleet
	// numbers read after a fill are averaged over fills of them, the
	// extra ones untimed fills on a shared registry made first.
	setupReps, fills int
	// snapshotEvery is serve.Config.SnapshotEvery (<0: no periodic cuts).
	snapshotEvery int64
	// tailOps, when positive, are run sequentially after an explicit
	// snapshot so recovery replays a snapshot plus a tail of exactly
	// this many ops. Zero leaves the whole run in the WAL.
	tailOps int
	// recoveries is how many times the kill/recover cycle is timed.
	recoveries int
}

func (z serveSizes) header() map[string]int64 {
	return map[string]int64{
		"pms_per_type":   int64(z.pmsPerType),
		"fill_vms":       int64(z.fillVMs),
		"setup_reps":     int64(z.setupReps),
		"fills":          int64(z.fills),
		"snapshot_every": z.snapshotEvery,
		"tail_ops":       int64(z.tailOps),
		"recoveries":     int64(z.recoveries),
		"shards":         serveShards,
		"clients":        serveClients,
	}
}

// recoveryNormOps is the op count full-WAL recovery time is scaled to:
// a run that measures for a fixed time acks a varying number of ops,
// and an unscaled recovery time would grow whenever the server got
// faster.
const recoveryNormOps = 100000

// vmRec is one VM the driver believes resident: its id, catalog type
// and the PM the server said it landed on.
type vmRec struct {
	id  int
	typ string
	pm  int
}

// rig is one in-process prvm-serve: the daemon's configuration
// (cmd/prvm-serve: observer plus ring sink) behind net/http on a
// loopback port.
type rig struct {
	srv  *serve.Server
	obs  *obs.Observer
	hs   *http.Server
	host string
	dir  string
	done chan error
	// pmType maps PM id -> catalog type, for the energy estimate.
	pmType map[int]string
}

// serveConfig is the serve.Config every rig (and every recovery) of a
// workload uses; only the PM inventory must be fresh per server.
func serveConfig(e *env, reg *ranktable.Registry, z serveSizes, seed int64, dir string, o *obs.Observer, ring *obs.RingSink) serve.Config {
	return serve.Config{
		Rankers:       reg,
		PMs:           e.cat.BuildCluster(z.pmsPerType).PMs(),
		NewVM:         e.cat.NewVM,
		Shards:        serveShards,
		Seed:          seed,
		DataDir:       dir,
		SnapshotEvery: z.snapshotEvery,
		Obs:           o,
		Sink:          ring,
	}
}

// startRig builds a server over a fresh inventory and starts serving
// it on 127.0.0.1:0.
func startRig(e *env, reg *ranktable.Registry, z serveSizes, seed int64, dir string) (*rig, error) {
	o := obs.New()
	ring := obs.NewRingSink(4096)
	o.SetSink(ring)
	cfg := serveConfig(e, reg, z, seed, dir, o, ring)
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Kill()
		return nil, fmt.Errorf("listen: %w", err)
	}
	r := &rig{
		srv:    srv,
		obs:    o,
		hs:     &http.Server{Handler: srv},
		host:   ln.Addr().String(),
		dir:    dir,
		done:   make(chan error, 1),
		pmType: make(map[int]string, len(cfg.PMs)),
	}
	for _, pm := range cfg.PMs {
		r.pmType[pm.ID] = pm.Type
	}
	go func() { r.done <- r.hs.Serve(ln) }()
	return r, nil
}

// stopHTTP closes the listener and every connection and waits for the
// serve goroutine; the serve.Server itself is left running.
func (r *rig) stopHTTP() error {
	err := r.hs.Close()
	if serr := <-r.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// kill stops HTTP and crashes the server (no final snapshot).
func (r *rig) kill() error {
	err := r.stopHTTP()
	r.srv.Kill()
	return err
}

// clusterBody fetches GET /v1/cluster?vms=1 straight from the handler.
func clusterBody(h http.Handler) ([]byte, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/cluster?vms=1", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/cluster: status %d", rec.Code)
	}
	return rec.Body.Bytes(), nil
}

// poster is the transport a loader drives: a loopback socket for the
// measured phase, the handler itself for the single-caller probes.
type poster interface {
	post(path, body string) (int, []byte, error)
}

// handlerPoster calls an http.Handler in process: the request path
// without the network, net/http's connection handling or its parser.
type handlerPoster struct{ h http.Handler }

func (p handlerPoster) post(path, body string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, path, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	w := &memResponse{code: http.StatusOK}
	p.h.ServeHTTP(w, req)
	return w.code, w.body.Bytes(), nil
}

// memResponse is the least http.ResponseWriter a handler can write to.
type memResponse struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *memResponse) Header() http.Header {
	if w.header == nil {
		w.header = http.Header{}
	}
	return w.header
}

func (w *memResponse) Write(b []byte) (int, error) { return w.body.Write(b) }

func (w *memResponse) WriteHeader(code int) { w.code = code }

// loader is one closed-loop client: it owns a connection, a seeded
// rng and the VMs it placed, and mixes release-a-random-own-resident
// with place-a-new-VM so the population holds steady.
type loader struct {
	e        *env
	p        poster
	rng      *rand.Rand
	resident []vmRec
	nextID   int
	// target is the resident count the op mix steers back to.
	target int
	body   []byte

	// tr, on the traced run, receives a root span per request; span
	// names the kind of request being made (http.request over the
	// socket, serve.handler in process).
	tr   *tracer
	span string

	samples   []sample
	seqs      []int64
	attempted int64
	failed    int64
	firstErr  error
}

// fail counts one failed op, remembering the first cause.
func (l *loader) fail(err error) {
	l.failed++
	if l.firstErr == nil {
		l.firstErr = err
	}
}

// place asks the server for a new VM of typ and, when acked, records
// where it landed. It returns the request's wall time.
func (l *loader) place(id int, typ string) time.Duration {
	l.body = append(l.body[:0], `{"vm":`...)
	l.body = strconv.AppendInt(l.body, int64(id), 10)
	l.body = append(l.body, `,"type":"`...)
	l.body = append(l.body, typ...)
	l.body = append(l.body, `"}`...)
	l.attempted++
	t0 := time.Now()
	code, resp, err := l.p.post("/v1/place", string(l.body))
	t1 := time.Now()
	d := t1.Sub(t0)
	l.tr.record(l.span, t0, t1, int64(id))
	switch {
	case err != nil:
		l.fail(err)
	case code != http.StatusOK:
		l.fail(fmt.Errorf("place vm %d: status %d: %s", id, code, bytes.TrimSpace(resp)))
	default:
		pm, okPM := jsonInt(resp, fieldPM)
		seq, okSeq := jsonInt(resp, fieldSeq)
		if !okPM || !okSeq || seq < 0 {
			// seq -1 marks a duplicate: the server had this VM already.
			l.fail(fmt.Errorf("place vm %d: unexpected ack %s", id, bytes.TrimSpace(resp)))
			break
		}
		l.resident = append(l.resident, vmRec{id: id, typ: typ, pm: int(pm)})
		l.seqs = append(l.seqs, seq)
	}
	return d
}

// releaseAt releases resident j and, when acked, forgets it.
func (l *loader) releaseAt(j int) time.Duration {
	vm := l.resident[j]
	l.body = append(l.body[:0], `{"vm":`...)
	l.body = strconv.AppendInt(l.body, int64(vm.id), 10)
	l.body = append(l.body, '}')
	l.attempted++
	t0 := time.Now()
	code, resp, err := l.p.post("/v1/release", string(l.body))
	t1 := time.Now()
	d := t1.Sub(t0)
	l.tr.record(l.span, t0, t1, int64(vm.id))
	switch {
	case err != nil:
		l.fail(err)
	case code != http.StatusOK:
		l.fail(fmt.Errorf("release vm %d: status %d: %s", vm.id, code, bytes.TrimSpace(resp)))
	default:
		pm, okPM := jsonInt(resp, fieldPM)
		seq, okSeq := jsonInt(resp, fieldSeq)
		if !okPM || !okSeq || int(pm) != vm.pm {
			l.fail(fmt.Errorf("release vm %d: acked from pm %d, placed on %d", vm.id, pm, vm.pm))
			break
		}
		last := len(l.resident) - 1
		l.resident[j] = l.resident[last]
		l.resident = l.resident[:last]
		l.seqs = append(l.seqs, seq)
	}
	return d
}

// step issues the next op of the stream and returns its kind and wall
// time. Ops are drawn, not alternated — two clients in strict
// alternation fall into lockstep, and which phase they lock into
// decides the latency of a whole run — with the odds leaning back
// towards the resident count the client started with, so the
// population holds and capacity is never reached.
func (l *loader) step() (uint8, time.Duration) {
	pPlace := 0.5 + 0.5*float64(l.target-len(l.resident))/float64(l.target+1)
	if len(l.resident) > 0 && l.rng.Float64() >= pPlace {
		return kindRelease, l.releaseAt(l.rng.Intn(len(l.resident)))
	}
	l.nextID++
	return kindPlace, l.place(l.nextID, l.e.vmType(l.rng))
}

// runFor drives the stream for dur (from start), sampling every op.
// A transport error ends the loop: the connection is gone.
func (l *loader) runFor(ctx context.Context, start time.Time, dur time.Duration) {
	for n := 0; ; n++ {
		if n&255 == 0 && ctx.Err() != nil {
			return
		}
		kind, d := l.step()
		end := time.Since(start)
		l.samples = append(l.samples, sample{end: int64(end), lat: int64(d), kind: kind})
		if end >= dur || (l.firstErr != nil && l.failed > 100) {
			return
		}
	}
}

// fleetState is what GET /v1/cluster?vms=1 reduces to.
type fleetState struct {
	usedPMs int
	kwh     float64
	resp    serve.ClusterResponse
}

// fleet reads the cluster through the API and prices its placement.
func fleet(e *env, r *rig, c *client, types map[int]string) (fleetState, error) {
	code, body, err := c.get("/v1/cluster?vms=1")
	if err != nil {
		return fleetState{}, err
	}
	if code != http.StatusOK {
		return fleetState{}, fmt.Errorf("GET /v1/cluster: status %d", code)
	}
	var st fleetState
	if err := json.Unmarshal(body, &st.resp); err != nil {
		return fleetState{}, fmt.Errorf("GET /v1/cluster: %w", err)
	}
	st.usedPMs = st.resp.UsedPMs
	perPM := map[int]int{}
	for _, p := range st.resp.Placements {
		perPM[p.PM] += e.cpuUnits(r.pmType[p.PM], types[p.VM])
	}
	ids := make([]int, 0, len(perPM))
	for id := range perPM {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	cpu := map[string][]int{}
	for _, id := range ids {
		cpu[r.pmType[id]] = append(cpu[r.pmType[id]], perPM[id])
	}
	st.kwh = e.fleetKWh(cpu)
	return st, nil
}

// served is one set-up server with everything the run needs to drive
// and later recover it.
type served struct {
	rig  *rig
	reg  *ranktable.Registry
	ctl  *client // the connection the fill ran on; reused for GETs
	fill *loader // holds every resident of the fill
	seed int64
	st   fleetState
}

// close drops the control connection and crashes the server.
func (s *served) close() error {
	s.ctl.close()
	return s.rig.kill()
}

// setupServe is one full set-up: cold registry (unless one is passed
// in), server, sequential fill, and the fleet state read back right
// after the fill.
func setupServe(e *env, z serveSizes, reg *ranktable.Registry, seed int64, dir string) (*served, error) {
	if reg == nil {
		var err error
		if reg, err = e.coldRegistry(); err != nil {
			return nil, err
		}
	}
	r, err := startRig(e, reg, z, seed, dir)
	if err != nil {
		return nil, err
	}
	c, err := dial(r.host)
	if err != nil {
		_ = r.kill() // the dial error is the one to report
		return nil, err
	}
	sv := &served{rig: r, reg: reg, ctl: c, seed: seed}
	l := &loader{e: e, p: c, rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < z.fillVMs; i++ {
		l.nextID++
		l.place(l.nextID, e.vmType(l.rng))
	}
	sv.fill = l
	if l.firstErr != nil {
		_ = sv.close() // the fill error is the one to report
		return nil, fmt.Errorf("fill: %d of %d places failed: %w", l.failed, l.attempted, l.firstErr)
	}
	if sv.st, err = fleet(e, r, c, residentTypes(l.resident)); err != nil {
		_ = sv.close() // the read-back error is the one to report
		return nil, err
	}
	return sv, nil
}

// residentTypes maps VM id -> catalog type.
func residentTypes(vms []vmRec) map[int]string {
	types := make(map[int]string, len(vms))
	for _, vm := range vms {
		types[vm.id] = vm.typ
	}
	return types
}

// walBytes sums the sizes of the WAL segments in dir.
func walBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, ent := range entries {
		if !strings.HasPrefix(ent.Name(), "wal-") {
			continue
		}
		info, err := os.Stat(filepath.Join(dir, ent.Name()))
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// drive runs every loader for dur and returns the merged samples and
// the phase's span in ns. With a tracer each loader records a root
// span per request into its own fork.
func drive(ctx context.Context, loaders []*loader, dur time.Duration, tr *tracer) ([]sample, int64) {
	forks := make([]*tracer, len(loaders))
	for i, l := range loaders {
		forks[i] = tr.fork()
		l.tr, l.span = forks[i], "http.request"
		l.samples = l.samples[:0]
	}
	var wg sync.WaitGroup
	start := time.Now()
	for _, l := range loaders {
		wg.Add(1)
		go func(l *loader) {
			defer wg.Done()
			l.runFor(ctx, start, dur)
		}(l)
	}
	wg.Wait()
	span := int64(time.Since(start))
	var all []sample
	for i, l := range loaders {
		all = append(all, l.samples...)
		tr.join(forks[i])
		l.tr = nil
	}
	return all, span
}

// runServe is the serve-small / serve-large workload.
func runServe(ctx context.Context, e *env, z serveSizes, rc runCfg) (*result, error) {
	res := newResult()

	// Set-up, repeated; each repetition fills with its own seed so the
	// after-fill fleet numbers average over independent streams.
	var (
		sv      *served
		setups  []float64
		usedPMs []float64
		kwhs    []float64
	)
	defer func() {
		if sv != nil {
			_ = sv.close() // error paths only; the success path closes before recovery
		}
	}()
	for rep := 0; rep < z.fills; rep++ {
		var shared *ranktable.Registry
		if sv != nil {
			shared = sv.reg
			err := sv.close()
			sv = nil
			if err != nil {
				return nil, err
			}
		}
		dir, err := e.dataDir("serve-" + strconv.Itoa(rep))
		if err != nil {
			return nil, err
		}
		timed := rep >= z.fills-z.setupReps
		if timed {
			shared = nil
		}
		t0 := time.Now()
		if sv, err = setupServe(e, z, shared, streamSeed(rc.seed, rep), dir); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", rep, err)
		}
		if timed {
			setups = append(setups, time.Since(t0).Seconds())
		}
		usedPMs = append(usedPMs, float64(sv.st.usedPMs))
		kwhs = append(kwhs, sv.st.kwh)
		res.attempted += sv.fill.attempted
	}
	r := sv.rig
	res.e2e["setup_s"] = median(setups)
	res.e2e["active_pms"] = mean(usedPMs)
	res.e2e["energy_kwh"] = mean(kwhs)

	// Measured phase: the fill's residents are dealt to the clients
	// round-robin, so each owns VMs to release from the first op.
	loaders := make([]*loader, serveClients)
	capHint := int(rc.seconds*40000) + 1024
	for w := range loaders {
		c, err := dial(r.host)
		if err != nil {
			return nil, err
		}
		defer c.close()
		loaders[w] = &loader{
			e:       e,
			p:       c,
			rng:     rand.New(rand.NewSource(streamSeed(rc.seed, 500+w))),
			nextID:  (w + 1) << 32,
			samples: make([]sample, 0, capHint),
			seqs:    make([]int64, 0, capHint),
		}
	}
	for i, vm := range sv.fill.resident {
		l := loaders[i%serveClients]
		l.resident = append(l.resident, vm)
	}
	for _, l := range loaders {
		l.target = len(l.resident)
	}
	seqs := sv.fill.seqs

	// On the traced run the first half runs untraced and the second
	// traced; the two rates give the tracing overhead.
	dur := time.Duration(rc.seconds * float64(time.Second))
	if rc.tr != nil {
		dur /= 2
	}
	all, span := drive(ctx, loaders, dur, nil)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	place := segmentMedians(all, span, int(kindPlace))
	rel := segmentMedians(all, span, int(kindRelease))
	both := segmentMedians(all, span, -1)
	all = nil
	res.e2e["decisions_per_s"] = both.perSec
	res.e2e["place_p50_us"] = place.p50 / 1e3
	res.e2e["place_p95_us"] = place.p95 / 1e3
	res.extra["place_p99_us"] = place.p99 / 1e3
	res.extra["release_p50_us"] = rel.p50 / 1e3
	res.extra["place_samples"] = float64(place.n)
	res.extra["release_samples"] = float64(rel.n)
	if rc.tr != nil {
		all, span = drive(ctx, loaders, dur, rc.tr)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if traced := segmentMedians(all, span, -1); both.perSec > 0 {
			res.layer["trace.overhead_pct"] = 100 * (both.perSec - traced.perSec) / both.perSec
		}
		all = nil
	}
	for _, l := range loaders {
		l.samples = nil
	}
	res.e2e["live_heap_mb"] = liveHeapMB()

	var pr *serveProbe
	if rc.tr != nil {
		var err error
		if pr, err = probeServe(e, rc, res, sv, loaders[0], z); err != nil {
			return nil, err
		}
	}

	// Output check: the server's VM set is the driver's resident set.
	want := map[int]int{}
	types := map[int]string{}
	for _, l := range loaders {
		if l.firstErr != nil {
			res.check("serve.ops_acked", false, l.firstErr.Error())
		}
		for _, vm := range l.resident {
			want[vm.id] = vm.pm
			types[vm.id] = vm.typ
		}
	}
	st, err := fleet(e, r, sv.ctl, types)
	if err != nil {
		return nil, err
	}
	res.check("serve.cluster_matches_driver", sameResidents(st.resp.Placements, want),
		fmt.Sprintf("server lists %d VMs, driver holds %d", len(st.resp.Placements), len(want)))
	res.extra["final_used_pms"] = float64(st.usedPMs)
	if n := len(st.resp.Shards); n > 0 && rc.tr != nil {
		res.layer["serve.used_pms_per_shard"] = float64(st.usedPMs) / float64(n)
	}

	// Optional fixed tail behind an explicit snapshot (serve-small).
	tail := loaders[0]
	tailAcked := int64(0)
	if z.tailOps > 0 {
		t0 := time.Now()
		if err := r.srv.Snapshot(); err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		t1 := time.Now()
		rc.tr.record("serve.snapshot", t0, t1, 0)
		res.extra["snapshot_ms"] = t1.Sub(t0).Seconds() * 1e3
		nseq := len(tail.seqs)
		for i := 0; i < z.tailOps; i++ {
			tail.step()
		}
		tailAcked = int64(len(tail.seqs) - nseq)
		if tail.firstErr != nil {
			res.check("serve.tail_acked", false, tail.firstErr.Error())
		}
	}

	// Every WAL seq was acked to exactly one request.
	for _, l := range loaders {
		res.attempted += l.attempted
		res.failed += l.failed
		seqs = append(seqs, l.seqs...)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	gapless := int64(len(seqs)) == r.srv.NextSeq()
	for i, s := range seqs {
		if s != int64(i) {
			gapless = false
			break
		}
	}
	res.check("serve.acked_seqs_exact", gapless,
		fmt.Sprintf("%d acks, next seq %d", len(seqs), r.srv.NextSeq()))
	acked := int64(len(seqs))
	res.extra["snapshots"] = float64(r.obs.Counter("serve.snapshots").Value())
	res.extra["forwards"] = float64(r.obs.Counter("serve.place_forwards").Value())
	if rc.tr != nil {
		res.layer["serve.snapshots"] = res.extra["snapshots"]
		res.layer["serve.forwards"] = res.extra["forwards"]
		if h := r.obs.Histogram("serve.batch_size", nil); h.Count() > 0 {
			res.layer["serve.batch_size_mean"] = h.Sum() / float64(h.Count())
		}
	}

	// Kill, then time recovery on the same DataDir.
	pre, err := clusterBody(r.srv)
	if err != nil {
		return nil, err
	}
	for _, l := range loaders {
		l.p.(*client).close()
	}
	err = sv.close()
	dir, seed, reg := r.dir, sv.seed, sv.reg
	sv = nil
	if err != nil {
		return nil, err
	}
	wb, err := walBytes(dir)
	if err != nil {
		return nil, err
	}
	walOps := acked
	if z.tailOps > 0 {
		walOps = tailAcked
	}
	if walOps > 0 {
		res.extra["wal_bytes_per_op"] = float64(wb) / float64(walOps)
	}
	recoverOnce := func(name string) (*serve.Server, float64, error) {
		cfg := serveConfig(e, reg, z, seed, dir, obs.New(), nil)
		t0 := time.Now()
		s2, err := serve.New(cfg)
		t1 := time.Now()
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", name, err)
		}
		rc.tr.record(name, t0, t1, 0)
		post, err := clusterBody(s2)
		if err != nil {
			s2.Kill()
			return nil, 0, err
		}
		res.check("serve.recovered_body_identical", bytes.Equal(pre, post),
			fmt.Sprintf("%s: pre-kill %d bytes, recovered %d bytes", name, len(pre), len(post)))
		return s2, t1.Sub(t0).Seconds(), nil
	}
	var recs []float64
	for i := 0; i < z.recoveries; i++ {
		s2, sec, err := recoverOnce("serve.recover_wal")
		if err != nil {
			return nil, err
		}
		recs = append(recs, sec)
		info := s2.Recovery()
		s2.Kill()
		res.check("serve.replayed_ops_exact",
			info.SnapshotSeq+int64(info.ReplayedOps) == acked && int64(info.ReplayedOps) == walOps && !info.Truncated,
			fmt.Sprintf("snapshot seq %d + %d replayed, want %d acked (%d in WAL), truncated=%v",
				info.SnapshotSeq, info.ReplayedOps, acked, walOps, info.Truncated))
	}
	rec := median(recs)
	res.extra["recovery_s"] = rec
	res.extra["replayed_ops"] = float64(walOps)
	if z.tailOps == 0 && walOps > 0 {
		rec *= recoveryNormOps / float64(walOps)
	}
	res.e2e["task_s"] = rec

	if rc.tr != nil {
		res.layer["serve.release_p50_us"] = res.extra["release_p50_us"]
		res.layer["serve.place_p99_us"] = res.extra["place_p99_us"]
		res.layer["serve.wal_bytes_per_op"] = res.extra["wal_bytes_per_op"]
		if sec := median(recs); sec > 0 {
			res.layer["serve.replay_ops_per_s"] = float64(walOps) / sec
		}
		// A graceful stop leaves a snapshot and an empty tail: cut one
		// (timed), then time recovery from it alone.
		s3, _, err := recoverOnce("serve.recover_wal")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		err = s3.Close()
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("close: %w", err)
		}
		rc.tr.record("serve.snapshot", t0, t1, 1)
		res.layer["serve.snapshot_ms"] = t1.Sub(t0).Seconds() * 1e3
		s4, sec, err := recoverOnce("serve.recover_snapshot")
		if err != nil {
			return nil, err
		}
		s4.Kill()
		res.layer["serve.recover_snapshot_ms"] = sec * 1e3
		if err := pr.finish(e, rc, res, z); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// sameResidents reports whether the server's placement list is exactly
// the driver's vm -> pm map.
func sameResidents(got []serve.VMStatus, want map[int]int) bool {
	if len(got) != len(want) {
		return false
	}
	for _, p := range got {
		if pm, ok := want[p.VM]; !ok || pm != p.PM {
			return false
		}
	}
	return true
}

// liveHeapMB is the heap still reachable after forced collection —
// two cycles, because a sync.Pool (the lattice builder's scratch) keeps
// its contents through one.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
