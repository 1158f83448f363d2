package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"pagerankvm/internal/experiments"
	"pagerankvm/internal/obs/record"
)

// golden reads one of the harness's checked-in outputs, which
// internal/experiments' TestHarnessGoldenOutputs regenerates in process;
// here the command itself must write the same bytes.
func golden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestQuickReportMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var out bytes.Buffer
	if err := run([]string{"-quick"}, &out); err != nil {
		t.Fatal(err)
	}
	wall := regexp.MustCompile(`(?m)^total wall time: .*\n`)
	if got := wall.ReplaceAll(out.Bytes(), nil); !bytes.Equal(got, golden(t, "prvm-exp-quick.txt")) {
		t.Fatalf("-quick stdout differs from prvm-exp-quick.txt:\n%s", got)
	}
}

func TestCSVMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, tc := range []struct {
		file string
		args []string
	}{
		{"prvm-sim.csv", []string{"-fig", "3a,3b", "-reps", "2", "-vms", "100", "-pms", "40"}},
		{"prvm-testbed.csv", []string{"-fig", "4a", "-jobs", "40", "-reps", "2", "-steps", "120"}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), tc.file)
			var out bytes.Buffer
			if err := run(append(tc.args, "-csv", path), &out); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, golden(t, tc.file)) {
				t.Fatalf("-csv differs from %s:\n%s", tc.file, got)
			}
			if out.Len() == 0 {
				t.Fatal("no figure tables on stdout")
			}
		})
	}
}

// A recording written by -record replays clean from its own header.
func TestRecordReplaysClean(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.jsonl.gz")
	args := []string{"-record", path, "-vms", "60", "-pms", "6", "-record-steps", "48", "-seed", "11"}
	if err := run(args, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	hdr, recorded, _, err := record.ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recorded) == 0 {
		t.Fatal("empty recording")
	}
	replayed, _, _, err := experiments.Replay(hdr.Meta)
	if err != nil {
		t.Fatal(err)
	}
	if sum := record.Diff(recorded, replayed); !sum.Clean() {
		t.Fatalf("replay diverges from the recording: %+v", sum)
	}
}

func TestRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "3a,9z"}, "unknown figure"},
		{[]string{"-fig", "4a", "-faults", "seed=1,drop=0.1"}, "-call-timeout"},
		{[]string{"-csv", "out.csv"}, "not both"},
		{[]string{"-fig", "8", "-series", "out.csv"}, "testbed figure"},
	} {
		err := run(tc.args, new(bytes.Buffer))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %q: err = %v, want one mentioning %q", tc.args, err, tc.want)
		}
	}
}
