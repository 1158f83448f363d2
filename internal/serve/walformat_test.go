package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"pagerankvm/internal/obs/record"
)

// parentWAL is a segment written by the commit before the op-line codec
// existed (encoding/json on both sides), from driveFixtureOps.
const parentWAL = "testdata/wal-parent.jsonl"

// driveFixtureOps sends the fixed, sequential op stream parentWAL was
// recorded from: places of every catalog family (opened and scored),
// releases, evictions (release + place pairs) and a drain (moves, then
// a retire).
func driveFixtureOps(t *testing.T, s *Server) {
	t.Helper()
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := ts.Client()
	types := []string{"m3.medium", "c3.large", "m3.large", "c3.xlarge", "m3.xlarge", "m3.2xlarge"}
	var first PlaceResponse
	for i := 0; i < 90; i++ {
		var pr PlaceResponse
		if code := postJSON(t, c, ts.URL+"/v1/place", PlaceRequest{VM: i, Type: types[i%len(types)]}, &pr); code != http.StatusOK {
			t.Fatalf("place %d: status %d", i, code)
		}
		if i == 0 {
			first = pr
		}
		if i%5 == 4 {
			if code := postJSON(t, c, ts.URL+"/v1/release", ReleaseRequest{VM: i - 3}, nil); code != http.StatusOK {
				t.Fatalf("release %d: status %d", i-3, code)
			}
		}
		if i%20 == 19 {
			var pl PlaceResponse
			postJSON(t, c, ts.URL+"/v1/place", PlaceRequest{VM: i, Type: types[i%len(types)]}, &pl)
			if code := postJSON(t, c, ts.URL+"/v1/evict", EvictRequest{PM: pl.PM}, nil); code != http.StatusOK {
				t.Fatalf("evict from pm %d: status %d", pl.PM, code)
			}
		}
	}
	if code := postJSON(t, c, ts.URL+"/v1/drain", DrainRequest{PM: first.PM}, nil); code != http.StatusOK {
		t.Fatalf("drain pm %d: status %d", first.PM, code)
	}
}

// The WAL is the same file it was before the codec: the same op stream
// yields the parent commit's bytes, and the parent's file recovers to
// the same state.
func TestWALBytesMatchParentFixture(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir, 2, 8)
	driveFixtureOps(t, s)
	want := stateFingerprint(s)
	s.Kill()

	got, err := os.ReadFile(filepath.Join(dir, segmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	fixture, err := os.ReadFile(parentWAL)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fixture) {
		t.Fatalf("WAL bytes differ from the parent commit's for the same op stream:\n--- parent ---\n%s\n--- now ---\n%s", fixture, got)
	}

	old := t.TempDir()
	if err := os.WriteFile(filepath.Join(old, segmentName(0)), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	r := newTestServer(t, old, 2, 8)
	defer func() { _ = r.Close() }()
	if fp := stateFingerprint(r); fp != want {
		t.Fatalf("the parent's WAL recovers to a different state:\n--- want ---\n%s\n--- got ---\n%s", want, fp)
	}
}

// (c) A WAL some other writer produced — keys reordered, an escape in
// a type name, an extra field, a line kind from the future — replays to
// the state the canonical file replays to, and recovery says how many
// lines went through encoding/json to get there.
func TestNonCanonicalWALReplays(t *testing.T) {
	fixture, err := os.ReadFile(parentWAL)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(fixture, []byte("\n"))
	var other bytes.Buffer
	other.Write(lines[0])
	rewritten := 0
	for i, line := range lines[1:] {
		if i%3 != 0 || len(line) == 0 {
			other.Write(line)
			continue
		}
		var fields map[string]any
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.UseNumber()
		if err := dec.Decode(&fields); err != nil {
			t.Fatal(err)
		}
		fields["shard"] = i
		sorted, err := json.Marshal(fields) // alphabetical: "assign" first, "t" late
		if err != nil {
			t.Fatal(err)
		}
		other.Write(bytes.Replace(sorted, []byte(`"m3.`), []byte(`"m\u0033.`), 1))
		other.WriteString("\n" + `{"t":"x","seq":0,"kind":"place","vm":1,"pm":1}` + "\n")
		rewritten++
	}

	recover := func(wal []byte) (string, RecoveryInfo) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(0)), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		s := newTestServer(t, dir, 2, 8)
		defer s.Kill()
		return stateFingerprint(s), s.Recovery()
	}
	want, canon := recover(fixture)
	got, info := recover(other.Bytes())
	if got != want {
		t.Fatalf("rewritten WAL recovers to a different state:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	if canon.SlowLines != 0 || info.SlowLines != rewritten || info.ReplayedOps != canon.ReplayedOps || info.Truncated {
		t.Fatalf("canonical recovery %+v; rewritten %+v, want %d slow lines", canon, info, rewritten)
	}
	if info.ReplaySeconds <= 0 || info.SnapshotLoadSeconds < 0 {
		t.Fatalf("recovery did not time itself: %+v", info)
	}
}

// (d) An error from apply in the middle of a segment stops the scan
// with that error, no op past it is delivered, and the decoding
// goroutine is gone when readSegmentOps returns. Run it under
// -race -count=10.
func TestApplyErrorStopsDecodeAhead(t *testing.T) {
	path := filepath.Join(t.TempDir(), segmentName(0))
	rec, err := record.Create(path, walMeta(0))
	if err != nil {
		t.Fatal(err)
	}
	const ops = 40 * batchOps
	for i := 0; i < ops; i++ {
		rec.RecordOp(record.Op{Kind: record.OpPlace, VM: i, VMType: "m3.medium", PM: i % 7})
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	errApply := errors.New("apply refused")
	for _, failAt := range []int{0, 1, batchOps - 1, batchOps, 3*batchOps + 17, ops - 1} {
		before := runtime.NumGoroutine()
		next := 0
		_, err := readSegmentOps(path, true, func(op record.Op) error {
			if int(op.Seq) != next || next > failAt {
				t.Fatalf("fail at %d: delivered seq %d, want %d", failAt, op.Seq, next)
			}
			next++
			if int(op.Seq) == failAt {
				return errApply
			}
			return nil
		})
		if err != errApply {
			t.Fatalf("fail at %d: err = %v, want the apply error", failAt, err)
		}
		// The decoder's last act is closing the channel readSegmentOps
		// waits on; what is left of it is a few instructions the OS may
		// take its time scheduling, and nothing observable but the count.
		for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("fail at %d: %d goroutines before, %d after", failAt, before, runtime.NumGoroutine())
			}
		}
	}
}

// Batches are recycled: over six batches' worth of ops a scan hands
// every batch back at least once, so an op that kept an assignment out
// of a reused arena, or a recycled batch that kept a stale op, recovers
// to another state. Assignment lengths alternate (3, 7, 4 and 5
// entries, none on a release), one line mid-batch takes encoding/json,
// and the WAL ends in a torn line. Run it under -race -count=5: the hand-back is a
// goroutine crossing.
func TestReplayRecyclesBatches(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir, 2, 64)
	types := []string{"m3.medium", "c3.xlarge", "m3.large", "c3.large"}
	var resident []int
	for id := 0; s.NextSeq() < 6*batchOps; id++ {
		vm, err := s.cfg.NewVM(id, types[id%len(types)])
		if err != nil {
			t.Fatal(err)
		}
		if res := s.submitPlace(vm, nil); res.err != nil {
			t.Fatalf("place vm %d: %v", id, res.err)
		}
		if resident = append(resident, id); id%3 == 2 {
			if _, _, err := s.release(resident[len(resident)/2]); err != nil {
				t.Fatal(err)
			}
			resident = slices.Delete(resident, len(resident)/2, len(resident)/2+1)
		}
	}
	body := func(s *Server) string {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/cluster?vms=1", nil))
		return w.Body.String()
	}
	wantBody, wantState, ops := body(s), stateFingerprint(s), s.NextSeq()
	s.Kill()

	path := filepath.Join(dir, segmentName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	mid := 1 + 3*batchOps + batchOps/2 // header, three batches, half of the fourth
	for ; !bytes.Contains(lines[mid], []byte(`"assign"`)); mid++ {
	}
	var fields map[string]any
	dec := json.NewDecoder(bytes.NewReader(lines[mid]))
	dec.UseNumber()
	if err := dec.Decode(&fields); err != nil {
		t.Fatal(err)
	}
	sorted, err := json.Marshal(fields) // keys in another order: not the codec's form
	if err != nil {
		t.Fatal(err)
	}
	lines[mid] = append(sorted, '\n')
	lines = append(lines, []byte(fmt.Sprintf(`{"t":"o","seq":%d,"kind":"pl`, ops)))
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	r := newTestServer(t, dir, 2, 64)
	defer r.Kill()
	if info := r.Recovery(); info.ReplayedOps != int(ops) || info.SlowLines != 1 || !info.Truncated {
		t.Fatalf("recovery %+v, want %d ops, 1 slow line, a torn tail", info, ops)
	}
	if got := body(r); got != wantBody {
		t.Fatalf("recovered /v1/cluster differs:\n--- pre-kill ---\n%s\n--- recovered ---\n%s", wantBody, got)
	}
	if got := stateFingerprint(r); got != wantState {
		t.Fatalf("recovered state differs:\n--- pre-kill ---\n%s\n--- recovered ---\n%s", wantState, got)
	}
	checkDirectory(t, r)
}

// refSegmentOps is readSegmentOps as it was before the codec and the
// decode-ahead: one loop, encoding/json alone, lines split by hand.
func refSegmentOps(data []byte, tolerateTail bool, fn func(record.Op)) (truncated bool, whole int, err error) {
	fail := func(err error) (bool, int, error) {
		if tolerateTail {
			return true, whole, nil
		}
		return false, 0, err
	}
	for n := 0; whole < len(data); n++ {
		line, rest, _ := bytes.Cut(data[whole:], []byte("\n"))
		if line = bytes.TrimSuffix(line, []byte("\r")); n == 0 {
			var h record.Header
			if err := json.Unmarshal(line, &h); err != nil || h.Format != record.FormatName || h.Version != record.FormatVersion {
				whole = 0
				return fail(fmt.Errorf("header: %v", err))
			}
		} else if len(line) > 0 {
			var probe struct {
				T string `json:"t"`
			}
			err := json.Unmarshal(line, &probe)
			var op record.Op
			switch {
			case err != nil:
			case probe.T == "o":
				if err = json.Unmarshal(line, &op); err == nil {
					fn(op)
				}
			case probe.T == "d":
				err = json.Unmarshal(line, new(record.Decision))
			case probe.T == "s":
				err = json.Unmarshal(line, new(record.Span))
			}
			if err != nil {
				return fail(err)
			}
		}
		whole = len(data) - len(rest)
	}
	if len(data) == 0 {
		return fail(errors.New("empty"))
	}
	return false, 0, nil
}

// FuzzWALTail: a valid segment followed by arbitrary bytes. Whatever
// the tail, readSegmentOps does not panic and agrees with the reference
// loop on the ops delivered (none from beyond the first bad line), on
// truncated, on where the decodable prefix ends and on whether the
// strict read fails. When the ops are not a prefix of the fixture's,
// recovery from the segment does not panic either, and holds to the
// rule the reference fold of the ops keeps: a VM that ends up on two
// shards fails it, and one that comes up has the directory its
// clusters imply.
func FuzzWALTail(f *testing.F) {
	fixture, err := os.ReadFile(parentWAL)
	if err != nil {
		f.Fatal(err)
	}
	valid := fixture[:bytes.Index(fixture, []byte(`{"t":"o","seq":12,`))]
	var written []record.Op // the fixture's ops: states the daemon wrote
	if _, _, err := refSegmentOps(fixture, false, func(op record.Op) { written = append(written, op) }); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"t":"o","seq":12,"kind":"pl`), 0)
	f.Fuzz(func(t *testing.T, tail []byte, keep int) {
		// keep < 0 cuts into the valid part, so headers get torn too.
		data := append([]byte(nil), valid...)
		if keep < 0 {
			data = data[:max(0, len(data)+keep)]
		}
		data = append(data, tail...)
		if bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
			t.Skip("gzip framing: the reference reads plain segments only")
		}
		path := filepath.Join(t.TempDir(), segmentName(0))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var replayed []record.Op
		for _, tolerate := range []bool{true, false} {
			var want, got []record.Op
			truncated, whole, werr := refSegmentOps(data, tolerate, func(op record.Op) { want = append(want, op) })
			scan, gerr := readSegmentOps(path, tolerate, func(op record.Op) error {
				op.Assign = slices.Clone(op.Assign) // the scan reuses it
				got = append(got, op)
				return nil
			})
			if (werr == nil) != (gerr == nil) || scan.truncated != truncated || scan.whole != int64(whole) {
				t.Fatalf("tolerate=%v: got %+v, %v; reference truncated=%v whole=%d, %v", tolerate, scan, gerr, truncated, whole, werr)
			}
			if len(got) != len(want) {
				t.Fatalf("tolerate=%v: %d ops delivered, reference %d", tolerate, len(got), len(want))
			}
			for i := range want {
				w, g := want[i], got[i]
				if math.Float64bits(w.Score) != math.Float64bits(g.Score) {
					t.Fatalf("op %d: score %v, reference %v", i, g.Score, w.Score)
				}
				w.Score, g.Score = 0, 0
				if !reflect.DeepEqual(w, g) {
					t.Fatalf("op %d: %+v, reference %+v", i, g, w)
				}
			}
			if tolerate {
				replayed = want // what recovery applies from a last segment
			}
		}
		if len(replayed) <= len(written) && reflect.DeepEqual(replayed, written[:len(replayed)]) {
			return
		}

		hosts := map[int]map[int]bool{} // vm -> the shards that host it
		twice := -1
		for _, op := range replayed {
			shard := int(hashID(op.PM) % 2)
			switch op.Kind {
			case record.OpPlace:
				if hosts[op.VM] == nil {
					hosts[op.VM] = map[int]bool{}
				}
				hosts[op.VM][shard] = true
			case record.OpRelease:
				delete(hosts[op.VM], shard)
			}
		}
		for vm, on := range hosts {
			if len(on) > 1 {
				twice = vm
			}
		}
		s, err := recoverDir(t, filepath.Dir(path), 8) // parentWAL's inventory
		if err != nil {
			if strings.HasPrefix(err.Error(), "panic: ") {
				t.Fatal(err)
			}
			return
		}
		defer s.Kill()
		if twice >= 0 {
			t.Fatalf("recovery came up with vm %d on both shards", twice)
		}
		checkDirectory(t, s)
	})
}
