package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"pagerankvm/internal/experiments"
	"pagerankvm/internal/obs"
	"pagerankvm/internal/placement"
	"pagerankvm/internal/ranktable"
)

// Shared test fixtures: the Amazon catalog and its rank-table registry
// are immutable and safe for concurrent readers, so every test reuses
// one build.
var (
	envOnce sync.Once
	envCat  *experiments.Catalog
	envReg  *ranktable.Registry
	envErr  error
)

func testEnv(t testing.TB) (*experiments.Catalog, *ranktable.Registry) {
	t.Helper()
	envOnce.Do(func() {
		envCat, envErr = experiments.AmazonCatalog()
		if envErr != nil {
			return
		}
		envReg, envErr = envCat.BuildRegistry(ranktable.Options{})
	})
	if envErr != nil {
		t.Fatalf("test env: %v", envErr)
	}
	return envCat, envReg
}

// newTestServer builds a server over pmsPerType PMs of each Table II
// type. dir == "" means in-memory.
func newTestServer(t *testing.T, dir string, shards, pmsPerType int) *Server {
	t.Helper()
	cat, reg := testEnv(t)
	cluster := cat.BuildCluster(pmsPerType)
	s, err := New(Config{
		Rankers: reg,
		PMs:     cluster.PMs(),
		NewVM:   cat.NewVM,
		Shards:  shards,
		DataDir: dir,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// postJSON posts body to url and decodes the response into out,
// returning the status code.
func postJSON(t *testing.T, client *http.Client, url string, body, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, client *http.Client, url string, out any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestPlaceReleaseEvictHTTP(t *testing.T) {
	s := newTestServer(t, "", 4, 8)
	defer func() { _ = s.Close() }()
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := ts.Client()

	// Place a batch of VMs; every response must carry a committed seq.
	seqs := map[int64]bool{}
	for i := 0; i < 40; i++ {
		var pr PlaceResponse
		code := postJSON(t, c, ts.URL+"/v1/place", PlaceRequest{VM: i, Type: "m3.large"}, &pr)
		if code != http.StatusOK {
			t.Fatalf("place vm %d: status %d", i, code)
		}
		if pr.Duplicate || pr.Seq < 0 || seqs[pr.Seq] {
			t.Fatalf("place vm %d: bad response %+v", i, pr)
		}
		if len(pr.Assign) == 0 {
			t.Fatalf("place vm %d: empty assignment", i)
		}
		seqs[pr.Seq] = true
	}

	// Idempotent replay: same id again is a duplicate, no new seq.
	var dup PlaceResponse
	if code := postJSON(t, c, ts.URL+"/v1/place", PlaceRequest{VM: 7, Type: "m3.large"}, &dup); code != http.StatusOK {
		t.Fatalf("duplicate place: status %d", code)
	}
	if !dup.Duplicate || dup.Seq != -1 {
		t.Fatalf("duplicate place: %+v", dup)
	}

	// Cluster status agrees.
	var cl ClusterResponse
	if code := getJSON(t, c, ts.URL+"/v1/cluster?vms=1", &cl); code != http.StatusOK {
		t.Fatalf("cluster: status %d", code)
	}
	if cl.VMs != 40 || len(cl.Placements) != 40 {
		t.Fatalf("cluster reports %d VMs, %d placements; want 40", cl.VMs, len(cl.Placements))
	}

	// Release one, then releasing again is a 404.
	var rr ReleaseResponse
	if code := postJSON(t, c, ts.URL+"/v1/release", ReleaseRequest{VM: 3}, &rr); code != http.StatusOK {
		t.Fatalf("release: status %d", code)
	}
	if rr.VM != 3 || rr.Seq < 0 {
		t.Fatalf("release response: %+v", rr)
	}
	var er ErrorResponse
	if code := postJSON(t, c, ts.URL+"/v1/release", ReleaseRequest{VM: 3}, &er); code != http.StatusNotFound {
		t.Fatalf("double release: status %d (%+v)", code, er)
	}
	if er.Code != "not_placed" {
		t.Fatalf("double release code = %q", er.Code)
	}

	// Evict a VM off a used PM; it must land elsewhere.
	var cl2 ClusterResponse
	getJSON(t, c, ts.URL+"/v1/cluster?vms=1", &cl2)
	src := cl2.Placements[0].PM
	var ev EvictResponse
	if code := postJSON(t, c, ts.URL+"/v1/evict", EvictRequest{PM: src}, &ev); code != http.StatusOK {
		t.Fatalf("evict: status %d", code)
	}
	if ev.From != src || ev.To == src {
		t.Fatalf("evict response: %+v", ev)
	}

	// Unknown VM type is a 400.
	if code := postJSON(t, c, ts.URL+"/v1/place", PlaceRequest{VM: 999, Type: "nope"}, &er); code != http.StatusBadRequest {
		t.Fatalf("unknown type: status %d", code)
	}

	// Health reports ok and a positive next seq.
	var hr HealthResponse
	if code := getJSON(t, c, ts.URL+"/healthz", &hr); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if hr.Status != "ok" || hr.NextSeq == 0 {
		t.Fatalf("healthz: %+v", hr)
	}
}

// Concurrent places of the same VM id must admit exactly one; the rest
// are duplicates pointing at the same PM.
func TestPlaceIdempotentUnderConcurrency(t *testing.T) {
	s := newTestServer(t, "", 4, 4)
	defer func() { _ = s.Close() }()
	ts := httptest.NewServer(s)
	defer ts.Close()

	const racers = 16
	results := make([]PlaceResponse, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, _ := json.Marshal(PlaceRequest{VM: 42, Type: "c3.large"})
			resp, err := ts.Client().Post(ts.URL+"/v1/place", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Errorf("racer %d: %v", i, err)
				return
			}
			defer func() { _ = resp.Body.Close() }()
			_ = json.NewDecoder(resp.Body).Decode(&results[i])
		}(i)
	}
	wg.Wait()

	placed := 0
	pmSet := map[int]bool{}
	for _, r := range results {
		if !r.Duplicate {
			placed++
		}
		pmSet[r.PM] = true
	}
	if placed != 1 {
		t.Fatalf("%d racers won; want exactly 1", placed)
	}
	if len(pmSet) != 1 {
		t.Fatalf("racers saw different PMs: %v", pmSet)
	}
}

// Filling a tiny inventory must end in no_capacity 409s, after
// forwarding tried every shard.
func TestNoCapacityAfterForwarding(t *testing.T) {
	s := newTestServer(t, "", 2, 1) // 2 PMs total
	defer func() { _ = s.Close() }()
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := ts.Client()

	saw409 := false
	for i := 0; i < 50 && !saw409; i++ {
		var er ErrorResponse
		code := postJSON(t, c, ts.URL+"/v1/place", PlaceRequest{VM: i, Type: "m3.2xlarge"}, &er)
		switch code {
		case http.StatusOK:
		case http.StatusConflict:
			if er.Code != "no_capacity" {
				t.Fatalf("409 code = %q", er.Code)
			}
			saw409 = true
		default:
			t.Fatalf("place %d: status %d", i, code)
		}
	}
	if !saw409 {
		t.Fatal("never saw no_capacity on a 2-PM inventory")
	}
}

// serve.place_forwards counts hand-offs to a next shard, not shards
// without room: a place every shard rejects adds N-1 forwards on an
// N-shard server, and one whose home shard is full but whose next
// shard has room adds exactly one.
func TestPlaceForwardsCountHandOffs(t *testing.T) {
	cat, reg := testEnv(t)
	newServer := func(shards, pmsPerType int) (*Server, *obs.Observer) {
		o := obs.New()
		s, err := New(Config{
			Rankers: reg,
			PMs:     cat.BuildCluster(pmsPerType).PMs(),
			NewVM:   cat.NewVM,
			Shards:  shards,
			Obs:     o,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		t.Cleanup(func() { _ = s.Close() })
		return s, o
	}
	place := func(s *Server, id int) placeResult {
		vm, err := cat.NewVM(id, "m3.2xlarge")
		if err != nil {
			t.Fatal(err)
		}
		return s.submitPlace(vm, nil)
	}
	// fill places VMs until the first rejection and returns the next
	// unused VM id.
	fill := func(s *Server) int {
		for id := 0; id < 200; id++ {
			res := place(s, id)
			if errors.Is(res.err, placement.ErrNoCapacity) {
				return id + 1
			}
			if res.err != nil {
				t.Fatalf("place %d: %v", id, res.err)
			}
		}
		t.Fatal("inventory never filled")
		return 0
	}

	for _, shards := range []int{1, 2} {
		s, o := newServer(shards, 1)
		id := fill(s)
		forwards, rejected := o.Counter("serve.place_forwards"), o.Counter("serve.place_rejected")
		f0, r0 := forwards.Value(), rejected.Value()
		for i := 0; i < 3; i++ {
			if res := place(s, id+i); !errors.Is(res.err, placement.ErrNoCapacity) {
				t.Fatalf("%d shard(s), full: place %d: got %+v, want no capacity", shards, id+i, res)
			}
		}
		if got, want := forwards.Value()-f0, int64(3*(shards-1)); got != want {
			t.Errorf("%d full shard(s): 3 rejections counted %d forwards, want %d", shards, got, want)
		}
		if got := rejected.Value() - r0; got != 3 {
			t.Errorf("%d full shard(s): 3 rejections counted %d rejected, want 3", shards, got)
		}
	}

	// Home shard 0 fills first; the first VM it cannot hold lands on
	// shard 1 after exactly one forward.
	s, o := newServer(2, 2)
	forwards := o.Counter("serve.place_forwards")
	for id := 0; id < 400; id++ {
		if s.vmShard(id) != 0 {
			continue
		}
		f0 := forwards.Value()
		res := place(s, id)
		if res.err != nil {
			t.Fatalf("place %d: %v", id, res.err)
		}
		if _, onHome := s.shards[0].pms[res.PM]; onHome {
			if got := forwards.Value() - f0; got != 0 {
				t.Fatalf("place %d on its home shard counted %d forwards", id, got)
			}
			continue
		}
		if got := forwards.Value() - f0; got != 1 {
			t.Fatalf("place %d forwarded to shard 1 counted %d forwards, want 1", id, got)
		}
		return
	}
	t.Fatal("home shard never filled")
}

// stateFingerprint captures everything recovery promises to restore
// bit-identically: per-shard list orders, watermarks, per-PM profiles
// and hosted assignments.
func stateFingerprint(s *Server) string {
	var b bytes.Buffer
	for _, sh := range s.shards {
		sh.mu.Lock()
		fmt.Fprintf(&b, "shard %d maxused %d\nused:", sh.idx, sh.cluster.MaxUsed)
		for _, pm := range sh.cluster.UsedPMs() {
			fmt.Fprintf(&b, " %d", pm.ID)
		}
		fmt.Fprintf(&b, "\nunused:")
		for _, pm := range sh.cluster.UnusedPMs() {
			fmt.Fprintf(&b, " %d", pm.ID)
		}
		fmt.Fprintln(&b)
		for _, pm := range sh.cluster.UsedPMs() {
			fmt.Fprintf(&b, "pm %d used %v\n", pm.ID, pm.Used())
			vms := pm.VMs()
			for _, id := range pm.VMIDs() {
				h := vms[id]
				fmt.Fprintf(&b, "  vm %d %s assign %v\n", id, h.VM.Type, h.Assign)
			}
		}
		sh.mu.Unlock()
	}
	return b.String()
}

// A sequentially driven server, killed without a final snapshot, must
// recover to a bit-identical state: same list orders, same profiles,
// same assignments. A mid-run snapshot exercises the snapshot + WAL
// tail path rather than pure replay.
func TestKillRecoverBitIdentical(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir, 3, 12)
	ts := httptest.NewServer(s)
	c := ts.Client()

	types := []string{"m3.medium", "m3.large", "c3.large", "c3.xlarge", "m3.xlarge"}
	for i := 0; i < 120; i++ {
		var pr PlaceResponse
		if code := postJSON(t, c, ts.URL+"/v1/place", PlaceRequest{VM: i, Type: types[i%len(types)]}, &pr); code != http.StatusOK {
			t.Fatalf("place %d: status %d", i, code)
		}
		if i%7 == 3 {
			postJSON(t, c, ts.URL+"/v1/release", ReleaseRequest{VM: i - 2}, nil)
		}
	}
	if err := s.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	for i := 120; i < 180; i++ {
		var pr PlaceResponse
		if code := postJSON(t, c, ts.URL+"/v1/place", PlaceRequest{VM: i, Type: types[i%len(types)]}, &pr); code != http.StatusOK {
			t.Fatalf("place %d: status %d", i, code)
		}
	}
	want := stateFingerprint(s)
	wantSeq := s.NextSeq()
	ts.Close()
	s.Kill()

	r := newTestServer(t, dir, 3, 12)
	defer func() { _ = r.Close() }()
	if got := stateFingerprint(r); got != want {
		t.Fatalf("recovered state differs from pre-kill state:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	info := r.Recovery()
	if info.NextSeq != wantSeq {
		t.Fatalf("recovered next seq %d, want %d", info.NextSeq, wantSeq)
	}
	if info.SnapshotSeq == 0 {
		t.Fatal("recovery ignored the mid-run snapshot")
	}
	if info.ReplayedOps == 0 {
		t.Fatal("recovery replayed no WAL tail")
	}
}

// A snapshot cut garbage-collects the segments and snapshots it
// supersedes.
func TestSnapshotGC(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir, 2, 4)
	ts := httptest.NewServer(s)
	c := ts.Client()
	for i := 0; i < 20; i++ {
		postJSON(t, c, ts.URL+"/v1/place", PlaceRequest{VM: i, Type: "m3.medium"}, nil)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatalf("snapshot 1: %v", err)
	}
	for i := 20; i < 40; i++ {
		postJSON(t, c, ts.URL+"/v1/place", PlaceRequest{VM: i, Type: "m3.medium"}, nil)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatalf("snapshot 2: %v", err)
	}
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("want 1 live segment after final snapshot, got %v", segs)
	}
	snap, ok, err := loadLatestSnapshot(dir)
	if err != nil || !ok {
		t.Fatalf("load snapshot: ok=%v err=%v", ok, err)
	}
	if start, _ := segmentStart(segs[0]); start != snap.Seq {
		t.Fatalf("live segment starts at %d, snapshot cut at %d", start, snap.Seq)
	}
}

// Graceful Close must leave a state that recovers without replaying any
// ops (the final snapshot covers everything).
func TestGracefulCloseRecoversFromSnapshotOnly(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir, 2, 4)
	ts := httptest.NewServer(s)
	for i := 0; i < 15; i++ {
		postJSON(t, ts.Client(), ts.URL+"/v1/place", PlaceRequest{VM: i, Type: "c3.large"}, nil)
	}
	want := stateFingerprint(s)
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	r := newTestServer(t, dir, 2, 4)
	defer func() { _ = r.Close() }()
	if got := stateFingerprint(r); got != want {
		t.Fatalf("recovered state differs after graceful close")
	}
	if info := r.Recovery(); info.ReplayedOps != 0 || info.SnapshotSeq == 0 {
		t.Fatalf("graceful recovery should be snapshot-only: %+v", info)
	}
}

// Recovery must refuse a shard-count change: list orders are per-shard
// and do not survive re-sharding.
func TestRecoveryRefusesReshard(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir, 2, 4)
	ts := httptest.NewServer(s)
	for i := 0; i < 5; i++ {
		postJSON(t, ts.Client(), ts.URL+"/v1/place", PlaceRequest{VM: i, Type: "m3.medium"}, nil)
	}
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	cat, reg := testEnv(t)
	cluster := cat.BuildCluster(4)
	_, err := New(Config{Rankers: reg, PMs: cluster.PMs(), NewVM: cat.NewVM, Shards: 3, DataDir: dir})
	if err == nil {
		t.Fatal("New accepted a shard-count change over an existing data dir")
	}
}

func BenchmarkSubmitPlace(b *testing.B) {
	cat, err := experiments.AmazonCatalog()
	if err != nil {
		b.Fatal(err)
	}
	reg, err := cat.BuildRegistry(ranktable.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cluster := cat.BuildCluster(512)
	s, err := New(Config{Rankers: reg, PMs: cluster.PMs(), NewVM: cat.NewVM, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = s.Close() }()

	types := []string{"m3.medium", "m3.large", "c3.large"}
	var nextID atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id := int(nextID.Add(1))
			vm, err := cat.NewVM(id, types[id%len(types)])
			if err != nil {
				b.Fatal(err)
			}
			res := s.submitPlace(vm, nil)
			if res.err != nil && !errors.Is(res.err, placement.ErrNoCapacity) {
				b.Fatal(res.err)
			}
		}
	})
}
