package experiments

import (
	"bytes"
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
	cfg := RecordConfig{Trace: "google", Seed: 9, NumVMs: 30, PMsPerType: 4, Steps: 24}
	path := filepath.Join(t.TempDir(), "run.jsonl.gz")
	res, ndec, err := RecordToFile(path, cfg)
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
	if !reflect.DeepEqual(hdr.Meta, cfg.Meta()) {
		t.Fatalf("header meta %+v, want %+v", hdr.Meta, cfg.Meta())
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
	if _, _, err := RecordToFile(path, RecordConfig{Seed: 4, NumVMs: 30, PMsPerType: 4, Steps: 12}); err != nil {
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

func TestConfigFromMetaRejectsUnreplayable(t *testing.T) {
	cases := []struct {
		name string
		meta record.RunMeta
	}{
		{"wrong kind", record.RunMeta{Kind: "bench"}},
		{"wrong algorithm", record.RunMeta{Kind: "sim", Algorithm: "FFDSum"}},
		{"unknown trace", record.RunMeta{Kind: "sim", Trace: "borg"}},
	}
	for _, tc := range cases {
		if _, err := ConfigFromMeta(tc.meta); err == nil {
			t.Errorf("%s: ConfigFromMeta accepted %+v", tc.name, tc.meta)
		}
	}
}

func TestConfigMetaRoundTrip(t *testing.T) {
	cfg := RecordConfig{Trace: "planetlab", Seed: 3, NumVMs: 50, PMsPerType: 5, Steps: 12}
	got, err := ConfigFromMeta(cfg.Meta())
	if err != nil {
		t.Fatal(err)
	}
	if got != cfg {
		t.Fatalf("round trip %+v, want %+v", got, cfg)
	}
}
