package experiments

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pagerankvm/internal/obs/record"
)

// TestRecordReplayRoundTrip is the golden-regression contract end to
// end at the library layer: record a seeded run to disk, reconstruct
// the run from the file's header alone, and require the fresh decision
// stream to diff clean against the recorded one.
func TestRecordReplayRoundTrip(t *testing.T) {
	meta := record.RunMeta{Kind: "sim", Trace: "google", Seed: 9, NumVMs: 30, PMsPerType: 4, Steps: 24}
	path := filepath.Join(t.TempDir(), "run.jsonl.gz")
	res, ndec, err := RecordToFile(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	if ndec == 0 {
		t.Fatal("no decisions recorded")
	}

	hdr, recorded, spans, err := record.ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(recorded)) != ndec {
		t.Fatalf("file holds %d decisions, recorder counted %d", len(recorded), ndec)
	}
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	meta.Algorithm = "PageRankVM"
	if !reflect.DeepEqual(hdr.Meta, meta) {
		t.Fatalf("header meta %+v, want %+v", hdr.Meta, meta)
	}

	replayed, _, rres, err := Replay(hdr.Meta)
	if err != nil {
		t.Fatal(err)
	}
	if sum := record.Diff(recorded, replayed); !sum.Clean() {
		t.Fatalf("replay diverges from recording: %+v (first: %+v)", sum, sum.First)
	}
	if rres != res {
		t.Fatalf("replay result %+v, want recorded %+v", rres, res)
	}
}

// TestReplayIgnoresRetiredEngineFlag: recordings made while the placer
// still had a user-selected string-key engine carry "no_fast_path":true
// in their header. Decision identity never depended on the engine, so
// such a recording must still load and replay clean.
func TestReplayIgnoresRetiredEngineFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if _, _, err := RecordToFile(path, record.RunMeta{Kind: "sim", Seed: 4, NumVMs: 30, PMsPerType: 4, Steps: 12}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(data, []byte(`"kind":"sim"`), []byte(`"kind":"sim","no_fast_path":true`), 1)
	if bytes.Equal(old, data) {
		t.Fatal("header not rewritten")
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	hdr, recorded, _, err := record.ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	replayed, _, _, err := Replay(hdr.Meta)
	if err != nil {
		t.Fatal(err)
	}
	if sum := record.Diff(recorded, replayed); !sum.Clean() || len(recorded) == 0 {
		t.Fatalf("old-header recording (%d decisions) diverges on replay: %+v", len(recorded), sum)
	}
}

// Replay refuses a header it cannot reconstruct: another recording
// kind, another algorithm, or a trace this build does not know.
func TestConfigFromMetaRejectsUnreplayable(t *testing.T) {
	cases := []struct {
		name string
		meta record.RunMeta
	}{
		{"no kind", record.RunMeta{}},
		{"wrong kind", record.RunMeta{Kind: "bench"}},
		{"wrong algorithm", record.RunMeta{Kind: "sim", Algorithm: "FFDSum"}},
		{"unknown trace", record.RunMeta{Kind: "sim", Trace: "borg"}},
	}
	for _, tc := range cases {
		if _, _, _, err := Replay(tc.meta); err == nil {
			t.Errorf("%s: Replay accepted %+v", tc.name, tc.meta)
		}
	}
}

// TestConfigMetaRoundTrip: recording from each golden file's header
// meta writes that header back byte for byte, and the decision stream
// diffs clean against the golden one — the header is the run's whole
// configuration, with nothing defaulted on one side only.
func TestConfigMetaRoundTrip(t *testing.T) {
	goldens, err := filepath.Glob(filepath.Join("..", "..", "examples", "golden", "*.jsonl.gz"))
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no golden recordings (%v)", err)
	}
	for _, golden := range goldens {
		hdr, want, _, err := record.ReadAll(golden)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), filepath.Base(golden))
		if _, _, err := RecordToFile(path, hdr.Meta); err != nil {
			t.Fatal(err)
		}
		if got, wantLine := headerLine(t, path), headerLine(t, golden); !bytes.Equal(got, wantLine) {
			t.Errorf("%s: header\n%s\nwant\n%s", golden, got, wantLine)
		}
		_, got, _, err := record.ReadAll(path)
		if err != nil {
			t.Fatal(err)
		}
		if sum := record.Diff(want, got); !sum.Clean() {
			t.Errorf("%s: re-recording diverges: %+v (first: %+v)", golden, sum, sum.First)
		}
	}
}

// headerLine returns the first line of a gzip-compressed recording.
func headerLine(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(zr).ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	return line
}
