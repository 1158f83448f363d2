package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// checkDirectory fails unless the VM directory is exactly the clusters'
// Locate view: one entry per placed VM, naming the shard and PM whose
// cluster holds it. The server must be quiescent.
func checkDirectory(t *testing.T, s *Server) {
	t.Helper()
	for _, sh := range s.shards {
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	s.loc.mu.RLock()
	defer s.loc.mu.RUnlock()
	placed := 0
	for _, sh := range s.shards {
		placed += sh.cluster.NumVMs()
	}
	if len(s.loc.m) != placed {
		t.Fatalf("directory holds %d VMs, clusters %d", len(s.loc.m), placed)
	}
	for vm, e := range s.loc.m {
		if e.shard < 0 || e.shard >= len(s.shards) {
			t.Fatalf("vm %d: directory names shard %d of %d", vm, e.shard, len(s.shards))
		}
		pm, ok := s.shards[e.shard].cluster.Locate(vm)
		if !ok || pm.ID != e.pm {
			t.Fatalf("vm %d: directory says shard %d pm %d, cluster has it on %v (placed %v)", vm, e.shard, e.pm, pm, ok)
		}
	}
}

// forwardedIDs fills one shard of a 2-shard server through VMs homed
// there until want of them spill to the other shard, and returns the
// spilled ids with the PMs they landed on.
func forwardedIDs(t *testing.T, s *Server, ts *httptest.Server, want int) (ids, pms []int) {
	t.Helper()
	const home = 0
	for id := 0; len(ids) < want; id++ {
		if id > 10_000 {
			t.Fatalf("only %d of %d placements forwarded", len(ids), want)
		}
		if s.vmShard(id) != home {
			continue
		}
		var pr PlaceResponse
		if code := postJSON(t, ts.Client(), ts.URL+"/v1/place", PlaceRequest{VM: id, Type: "m3.2xlarge"}, &pr); code != http.StatusOK {
			t.Fatalf("place vm %d: status %d", id, code)
		}
		if s.pmShard(pr.PM) != home {
			ids, pms = append(ids, id), append(pms, pr.PM)
		}
	}
	return ids, pms
}

// A VM whose home shard was full lives on another shard. The directory,
// not the VM-id hash, must answer for it: a re-place is a duplicate
// naming the other shard's PM, and a release reaches the PM hosting it
// — before a crash and after recovery.
func TestDirectoryAcrossShards(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir, 2, 3)
	ts := httptest.NewServer(s)
	ids, pms := forwardedIDs(t, s, ts, 2)

	dupNames := func(s *Server, ts *httptest.Server, id, pm int) {
		t.Helper()
		var pr PlaceResponse
		if code := postJSON(t, ts.Client(), ts.URL+"/v1/place", PlaceRequest{VM: id, Type: "m3.2xlarge"}, &pr); code != http.StatusOK || !pr.Duplicate || pr.PM != pm {
			t.Fatalf("re-place vm %d: status %d %+v, want duplicate on pm %d", id, code, pr, pm)
		}
	}
	releaseFrom := func(s *Server, ts *httptest.Server, id, pm int) {
		t.Helper()
		var rr ReleaseResponse
		if code := postJSON(t, ts.Client(), ts.URL+"/v1/release", ReleaseRequest{VM: id}, &rr); code != http.StatusOK || rr.PM != pm {
			t.Fatalf("release vm %d: status %d %+v, want pm %d", id, code, rr, pm)
		}
	}
	dupNames(s, ts, ids[0], pms[0])
	releaseFrom(s, ts, ids[1], pms[1])
	checkDirectory(t, s)
	ts.Close()
	s.Kill()

	r := newTestServer(t, dir, 2, 3)
	defer func() { _ = r.Close() }()
	rts := httptest.NewServer(r)
	defer rts.Close()
	checkDirectory(t, r)
	dupNames(r, rts, ids[0], pms[0])
	releaseFrom(r, rts, ids[0], pms[0])
	checkDirectory(t, r)
}

// Racing places of one id whose home shard is full are all forwarded;
// the directory must still admit exactly one of them.
func TestForwardedDuplicatesOneWinner(t *testing.T) {
	s := newTestServer(t, "", 2, 3)
	defer func() { _ = s.Close() }()
	ts := httptest.NewServer(s)
	defer ts.Close()
	ids, _ := forwardedIDs(t, s, ts, 1)
	id := ids[0] + 1
	for s.vmShard(id) != 0 {
		id++
	}

	const racers = 16
	results := make([]PlaceResponse, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, _ := json.Marshal(PlaceRequest{VM: id, Type: "m3.medium"})
			resp, err := ts.Client().Post(ts.URL+"/v1/place", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Errorf("racer %d: %v", i, err)
				return
			}
			defer func() { _ = resp.Body.Close() }()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("racer %d: status %d", i, resp.StatusCode)
			}
			_ = json.NewDecoder(resp.Body).Decode(&results[i])
		}(i)
	}
	wg.Wait()
	won := 0
	for _, r := range results {
		if !r.Duplicate {
			won++
		}
		if r.PM != results[0].PM {
			t.Fatalf("racers saw pms %d and %d", results[0].PM, r.PM)
		}
	}
	if won != 1 {
		t.Fatalf("%d racers won, want 1", won)
	}
	if s.pmShard(results[0].PM) == 0 {
		t.Fatalf("vm %d landed on its full home shard", id)
	}
	checkDirectory(t, s)
}

// snapshotBytes runs a small 2-shard server over 2 PMs per type, places
// a few VMs, closes it gracefully and returns the snapshot it cut.
func snapshotBytes(t testing.TB) []byte {
	dir := t.TempDir()
	cat, reg := testEnv(t)
	s, err := New(Config{Rankers: reg, PMs: cat.BuildCluster(2).PMs(), NewVM: cat.NewVM, Shards: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	types := []string{"m3.medium", "c3.large", "m3.xlarge"}
	for i := 0; i < 9; i++ {
		vm, err := cat.NewVM(i, types[i%len(types)])
		if err != nil {
			t.Fatal(err)
		}
		if res := s.submitPlace(vm, nil); res.err != nil {
			t.Fatal(res.err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapshotName(9)))
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// withDim99 rewrites the first assigned dimension of b to 99, beyond
// every Table II shape.
func withDim99(t testing.TB, b []byte) []byte {
	i := bytes.Index(b, []byte(`"dim":`))
	if i < 0 {
		t.Fatal("no assignment to corrupt")
	}
	j := i + len(`"dim":`)
	k := j + bytes.IndexByte(b[j:], ',')
	return append(append(append([]byte(nil), b[:j]...), "99"...), b[k:]...)
}

// recoverFrom starts a 2-shard server over 2 PMs per type on a data
// dir holding only the given snapshot bytes.
func recoverFrom(t testing.TB, snap []byte) (*Server, error) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotName(9)), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	return recoverDir(t, dir, 2)
}

// recoverDir starts a 2-shard server over pmsPerType PMs per type on
// dir, turning a panic into an error so a test can tell them apart.
func recoverDir(t testing.TB, dir string, pmsPerType int) (s *Server, err error) {
	defer func() {
		if p := recover(); p != nil {
			s, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	cat, reg := testEnv(t)
	return New(Config{Rankers: reg, PMs: cat.BuildCluster(pmsPerType).PMs(), NewVM: cat.NewVM, Shards: 2, DataDir: dir})
}

// An assignment naming a dimension the PM does not have is corrupt
// durable state: recovery reports it rather than panicking, whether it
// sits in a snapshot or in a WAL op line.
func TestCorruptAssignmentFailsRecovery(t *testing.T) {
	snap := snapshotBytes(t)
	if _, err := recoverFrom(t, withDim99(t, snap)); err == nil || !strings.Contains(err.Error(), "does not fit") {
		t.Fatalf("snapshot with dim 99: New = %v, want an assignment error", err)
	}
	// A cut that disagrees with the file name is corrupt too: a negative
	// one would name the next WAL segment so that no recovery reads it.
	if _, err := recoverFrom(t, bytes.Replace(snap, []byte(`"seq":9`), []byte(`"seq":-5`), 1)); err == nil || !strings.Contains(err.Error(), "cut at seq -5") {
		t.Fatalf("snapshot named seq 9 holding seq -5: New = %v, want an error", err)
	}

	dir := t.TempDir()
	s := newTestServer(t, dir, 2, 2)
	vm, err := s.cfg.NewVM(1, "m3.large")
	if err != nil {
		t.Fatal(err)
	}
	if res := s.submitPlace(vm, nil); res.err != nil {
		t.Fatal(res.err)
	}
	s.Kill()
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, %v", segs, err)
	}
	path := filepath.Join(dir, segs[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, withDim99(t, data), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := recoverDir(t, dir, 2); err == nil || !strings.Contains(err.Error(), "does not fit") {
		t.Fatalf("WAL op with dim 99: New = %v, want an assignment error", err)
	}
}

// A VM hosted on two shards is corrupt durable state, whether a WAL op
// or the snapshot put it there: no live path places one, and the
// directory recovery derives could route to only one of them. Recovery
// fails naming the VM and both PMs. (With 140 PMs per type, PMs of one
// type live on both of 2 shards.)
func TestReplayRejectsVMOnTwoShards(t *testing.T) {
	const perType = 140
	dir := t.TempDir()
	s := newTestServer(t, dir, 2, perType)
	vm, err := s.cfg.NewVM(1, "m3.medium")
	if err != nil {
		t.Fatal(err)
	}
	res := s.submitPlace(vm, nil)
	if res.err != nil {
		t.Fatal(res.err)
	}
	first := res.PM
	other := -1
	for _, sh := range s.shards {
		for _, pm := range sh.cluster.PMs() {
			if other < 0 && sh.idx != s.pmShard(first) && pm.Type == res.PMType {
				other = pm.ID
			}
		}
	}
	if other < 0 {
		t.Fatalf("no %s PM off shard %d", res.PMType, s.pmShard(first))
	}
	s.Kill()
	wantErr := func(err error, where string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("vm 1 is hosted on pm %d (shard %d) and on pm %d (shard %d)",
			min(first, other), s.pmShard(min(first, other)), max(first, other), s.pmShard(max(first, other)))) {
			t.Fatalf("vm 1 on pms %d and %d via the %s: New = %v, want an error naming both", first, other, where, err)
		}
	}

	// The WAL: a second place of VM 1, on the other shard.
	path := filepath.Join(dir, segmentName(0))
	wal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	line := wal[bytes.IndexByte(wal, '\n')+1:]
	line = bytes.Replace(line, []byte(`"seq":0,`), []byte(`"seq":1,`), 1)
	line = bytes.Replace(line, []byte(fmt.Sprintf(`"pm":%d,`, first)), []byte(fmt.Sprintf(`"pm":%d,`, other)), 1)
	if err := os.WriteFile(path, append(wal, line...), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := recoverDir(t, dir, perType)
	if err == nil {
		r.Kill()
	}
	wantErr(err, "WAL")

	// The snapshot: VM 1 listed by both shards.
	dir = t.TempDir()
	s = newTestServer(t, dir, 2, perType)
	if res := s.submitPlace(vm, nil); res.err != nil || res.PM != first {
		t.Fatalf("place on a fresh server: %+v, want pm %d", res, first)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap, _, err := loadLatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	from, to := &snap.State[s.pmShard(first)], &snap.State[s.pmShard(other)]
	to.Used = append(to.Used, other)
	to.Unused = slices.DeleteFunc(to.Unused, func(id int) bool { return id == other })
	to.PMs = append(to.PMs, snapPM{ID: other, VMs: from.PMs[0].VMs})
	if err := writeSnapshot(dir, snap); err != nil {
		t.Fatal(err)
	}
	if r, err = recoverDir(t, dir, perType); err == nil {
		r.Kill()
	}
	wantErr(err, "snapshot")
}

// With Fsync set, new segments get their directory synced, and a
// snapshot whose rename cannot be made durable must not garbage-collect
// the segments it supersedes.
func TestSnapshotGCWaitsForDirSync(t *testing.T) {
	cat, reg := testEnv(t)
	dir := t.TempDir()
	failed := errors.New("dir sync failed")
	syncs, failAt := 0, 0
	defer func(orig func(string) error) { syncDir = orig }(syncDir)
	syncDir = func(string) error {
		if syncs++; syncs == failAt {
			return failed
		}
		return nil
	}
	s, err := New(Config{Rankers: reg, PMs: cat.BuildCluster(2).PMs(), NewVM: cat.NewVM, Shards: 2, DataDir: dir, Fsync: true, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	if syncs != 1 {
		t.Fatalf("opening the wal synced the directory %d times, want 1", syncs)
	}
	vm, err := cat.NewVM(1, "m3.large")
	if err != nil {
		t.Fatal(err)
	}
	if res := s.submitPlace(vm, nil); res.err != nil {
		t.Fatal(res.err)
	}
	first := segmentName(0)

	// Sync 2 is the rotated segment's, sync 3 the snapshot rename's.
	failAt = 3
	if err := s.Snapshot(); !errors.Is(err, failed) || syncs != 3 {
		t.Fatalf("Snapshot = %v after %d dir syncs, want the third to fail it", err, syncs)
	}
	if _, err := os.Stat(filepath.Join(dir, first)); err != nil {
		t.Fatalf("superseded segment collected after a failed dir sync: %v", err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatalf("Snapshot with the dir syncing again: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, first)); !os.IsNotExist(err) {
		t.Fatalf("superseded segment still there after a durable snapshot: %v", err)
	}
}

// FuzzSnapshotRecover: arbitrary bytes as the newest snapshot of a data
// dir. New either refuses them or comes up with a directory that is
// exactly its clusters' Locate view; it never panics.
func FuzzSnapshotRecover(f *testing.F) {
	valid := snapshotBytes(f)
	f.Add(valid)
	f.Add(withDim99(f, valid))
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	f.Fuzz(func(t *testing.T, snap []byte) {
		s, err := recoverFrom(t, snap)
		if err != nil {
			if strings.HasPrefix(err.Error(), "panic: ") {
				t.Fatal(err)
			}
			return
		}
		defer s.Kill()
		checkDirectory(t, s)
	})
}
