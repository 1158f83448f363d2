package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	"pagerankvm/internal/obs/record"
)

// foldedVM is one placed VM in an independent fold of the durable
// files: the ground truth a recovered server is checked against.
type foldedVM struct {
	Type   string
	PM     int
	Assign []record.OpAssign
}

// foldDataDir reconstructs the expected vm->placement map by folding
// the newest snapshot and every WAL op at or after its cut — an
// implementation independent of Server.recover (no clusters, no
// placers), so the integration test cross-checks the recovery code
// rather than trusting it.
func foldDataDir(t *testing.T, dir string) map[int]foldedVM {
	t.Helper()
	state := map[int]foldedVM{}

	snap, haveSnap, err := loadLatestSnapshot(dir)
	if err != nil {
		t.Fatalf("fold: %v", err)
	}
	if haveSnap {
		for _, sh := range snap.State {
			for _, pm := range sh.PMs {
				for _, vm := range pm.VMs {
					state[vm.ID] = foldedVM{Type: vm.Type, PM: pm.ID, Assign: vm.Assign}
				}
			}
		}
	}

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatalf("fold: %v", err)
	}
	for i, name := range segs {
		last := i == len(segs)-1
		_, err := readSegmentOps(filepath.Join(dir, name), last, func(op record.Op) error {
			if op.Seq < snap.Seq {
				return nil
			}
			switch op.Kind {
			case record.OpPlace:
				if _, dup := state[op.VM]; dup {
					return fmt.Errorf("fold: seq %d places vm %d twice", op.Seq, op.VM)
				}
				state[op.VM] = foldedVM{Type: op.VMType, PM: op.PM, Assign: slices.Clone(op.Assign)}
			case record.OpRelease:
				if _, ok := state[op.VM]; !ok {
					return fmt.Errorf("fold: seq %d releases unplaced vm %d", op.Seq, op.VM)
				}
				delete(state, op.VM)
			case record.OpRetire:
				// A retire is only legal after every hosted VM moved off.
				for id, fv := range state {
					if fv.PM == op.PM {
						return fmt.Errorf("fold: seq %d retires pm %d still hosting vm %d", op.Seq, op.PM, id)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("fold %s: %v", name, err)
		}
	}
	return state
}

// serverPlacements extracts the recovered server's vm->placement map
// directly from its shards.
func serverPlacements(s *Server) map[int]foldedVM {
	out := map[int]foldedVM{}
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, pm := range sh.cluster.UsedPMs() {
			vms := pm.VMs()
			for _, id := range pm.VMIDs() {
				h := vms[id]
				out[id] = foldedVM{Type: h.VM.Type, PM: pm.ID, Assign: record.AssignOf(h.Assign)}
			}
		}
		sh.mu.Unlock()
	}
	return out
}

func diffPlacements(t *testing.T, want, got map[int]foldedVM) {
	t.Helper()
	var ids []int
	for id := range want {
		ids = append(ids, id)
	}
	for id := range got {
		if _, ok := want[id]; !ok {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		w, inW := want[id]
		g, inG := got[id]
		switch {
		case !inW:
			t.Errorf("vm %d: recovered but not in WAL fold (%+v)", id, g)
		case !inG:
			t.Errorf("vm %d: in WAL fold (%+v) but not recovered", id, w)
		case w.PM != g.PM || w.Type != g.Type || !assignEqual(w.Assign, g.Assign):
			t.Errorf("vm %d: fold %+v, recovered %+v", id, w, g)
		}
	}
}

func assignEqual(a, b []record.OpAssign) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestKillRecoverUnderConcurrentTraffic is the crash-recovery
// integration test: concurrent mixed place/release/evict traffic over
// HTTP with periodic snapshots, an abrupt Kill mid-stream, then
// recovery — verified against an independent fold of the snapshot and
// WAL files. Run under -race this also exercises the locking of the
// batcher, the WAL and the snapshot quiesce.
func TestKillRecoverUnderConcurrentTraffic(t *testing.T) {
	dir := t.TempDir()
	cat, reg := testEnv(t)
	cluster := cat.BuildCluster(12)
	s, err := New(Config{
		Rankers:       reg,
		PMs:           cluster.PMs(),
		NewVM:         cat.NewVM,
		Shards:        4,
		DataDir:       dir,
		SnapshotEvery: 64,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s)

	types := []string{"m3.medium", "m3.large", "m3.xlarge", "c3.large", "c3.xlarge"}
	const workers = 8
	const opsPerWorker = 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			client := ts.Client()
			placed := []int{}
			for i := 0; i < opsPerWorker; i++ {
				switch {
				case len(placed) > 0 && rng.Intn(5) == 0:
					// Release one of our own placements.
					k := rng.Intn(len(placed))
					vm := placed[k]
					placed = append(placed[:k], placed[k+1:]...)
					post(client, ts.URL+"/v1/release", ReleaseRequest{VM: vm})
				case len(placed) > 3 && rng.Intn(7) == 0:
					// Evict from wherever one of ours sits; the victim
					// choice is the server's.
					var pr PlaceResponse
					b, _ := json.Marshal(PlaceRequest{VM: placed[0], Type: types[0]})
					resp, err := client.Post(ts.URL+"/v1/place", "application/json", bytes.NewReader(b))
					if err == nil {
						_ = json.NewDecoder(resp.Body).Decode(&pr)
						_ = resp.Body.Close()
						post(client, ts.URL+"/v1/evict", EvictRequest{PM: pr.PM})
					}
				default:
					vm := w*10000 + i
					if code := post(client, ts.URL+"/v1/place", PlaceRequest{VM: vm, Type: types[rng.Intn(len(types))]}); code == http.StatusOK {
						placed = append(placed, vm)
					}
				}
				if w == 0 && i%20 == 10 {
					// Snapshots race the traffic on purpose.
					_ = s.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()

	// Kill without draining: no final snapshot, the WAL is the truth.
	ts.CloseClientConnections()
	s.Kill()
	ts.Close()

	want := foldDataDir(t, dir)
	if len(want) == 0 {
		t.Fatal("fold produced no placements; test drove no traffic?")
	}

	r, err := New(Config{
		Rankers: reg,
		PMs:     cat.BuildCluster(12).PMs(),
		NewVM:   cat.NewVM,
		Shards:  4,
		DataDir: dir,
	})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer func() { _ = r.Close() }()

	diffPlacements(t, want, serverPlacements(r))
	if info := r.Recovery(); info.VMs != len(want) {
		t.Fatalf("recovery reports %d VMs, fold has %d", info.VMs, len(want))
	}

	// The recovered server keeps serving: free a slot (the cluster may
	// have been killed while full), then place a fresh VM.
	ts2 := httptest.NewServer(r)
	defer ts2.Close()
	for id, fv := range want {
		if code := post(ts2.Client(), ts2.URL+"/v1/release", ReleaseRequest{VM: id}); code != http.StatusOK {
			t.Fatalf("post-recovery release of vm %d: status %d", id, code)
		}
		if code := post(ts2.Client(), ts2.URL+"/v1/place", PlaceRequest{VM: 999999, Type: fv.Type}); code != http.StatusOK {
			t.Fatalf("post-recovery place: status %d", code)
		}
		break
	}
}

// post sends a JSON body and returns the status code, swallowing
// transport errors (expected around the kill).
func post(c *http.Client, url string, body any) int {
	b, err := json.Marshal(body)
	if err != nil {
		return 0
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0
	}
	defer func() { _ = resp.Body.Close() }()
	return resp.StatusCode
}

// A torn final WAL line (crash mid-write) must not block recovery: the
// torn suffix was never acknowledged and is discarded.
func TestRecoveryToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir, 2, 4)
	ts := httptest.NewServer(s)
	for i := 0; i < 10; i++ {
		post(ts.Client(), ts.URL+"/v1/place", PlaceRequest{VM: i, Type: "m3.medium"})
	}
	want := stateFingerprint(s)
	ts.Close()
	s.Kill()

	// Tear the tail: append half a JSON line to the live segment.
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	last := filepath.Join(dir, segs[len(segs)-1])
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"o","seq":99999,"kind":"pl`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	r := newTestServer(t, dir, 2, 4)
	defer func() { _ = r.Close() }()
	if got := stateFingerprint(r); got != want {
		t.Fatalf("torn-tail recovery diverged:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	if !r.Recovery().Truncated {
		t.Fatal("recovery did not report the torn tail")
	}
}

// Tolerating a torn tail must leave a data dir the next start can read:
// the torn segment stops being the final one as soon as recovery opens
// a new segment, and every segment but the last is read strictly. So
// the torn bytes have to go.
func TestSecondCrashAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir, 2, 4)
	ts := httptest.NewServer(s)
	for i := 0; i < 10; i++ {
		post(ts.Client(), ts.URL+"/v1/place", PlaceRequest{VM: i, Type: "m3.medium"})
	}
	ts.Close()
	s.Kill()

	torn := filepath.Join(dir, segmentName(0))
	whole, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, append(whole[:len(whole):len(whole)], `{"t":"o","seq":10,"kind":"pl`...), 0o644); err != nil {
		t.Fatal(err)
	}

	r := newTestServer(t, dir, 2, 4)
	if !r.Recovery().Truncated {
		t.Fatal("recovery did not report the torn tail")
	}
	if cut, err := os.ReadFile(torn); err != nil || !bytes.Equal(cut, whole) {
		t.Fatalf("torn segment was not cut back to its last whole line (%v):\n%s", err, cut)
	}
	ts = httptest.NewServer(r)
	for i := 10; i < 15; i++ {
		post(ts.Client(), ts.URL+"/v1/place", PlaceRequest{VM: i, Type: "m3.medium"})
	}
	want := stateFingerprint(r)
	ts.Close()
	r.Kill()

	r2 := newTestServer(t, dir, 2, 4) // at the parent: "record: line 12: unexpected end of JSON input"
	defer func() { _ = r2.Close() }()
	if got := stateFingerprint(r2); got != want {
		t.Fatalf("second recovery diverged:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	if info := r2.Recovery(); info.Truncated || info.ReplayedOps != 15 {
		t.Fatalf("second recovery %+v, want 15 ops and no torn tail", info)
	}
}
