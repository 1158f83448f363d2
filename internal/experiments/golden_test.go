package experiments

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The harness's checked-in outputs, regenerated in process and compared
// byte for byte:
//
//	testdata/prvm-exp-quick.txt  prvm-exp -quick stdout, minus its wall-time line
//	testdata/prvm-sim.csv        prvm-exp -fig 3a,3b -reps 2 -vms 100 -pms 40 -csv FILE
//	testdata/prvm-testbed.csv    prvm-exp -fig 4a -jobs 40 -reps 2 -steps 120 -csv FILE
//
// A change that moves any of them must re-record the file with that
// command and say why in its description.
func TestHarnessGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, tc := range []struct {
		file string
		gen  func(io.Writer) error
	}{
		{"prvm-exp-quick.txt", func(w io.Writer) error {
			return WriteEvaluation(w,
				SimConfig{NumVMs: []int{200}, Reps: 2, Seed: 1},
				TestbedConfig{NumJobs: []int{40}, Reps: 2, Seed: 1, Steps: 120})
		}},
		{"prvm-sim.csv", func(w io.Writer) error {
			return writeFiguresCSV(w, "3a,3b", SimConfig{NumVMs: []int{100}, Reps: 2, Seed: 1, PMsPerType: 40}, TestbedConfig{})
		}},
		{"prvm-testbed.csv", func(w io.Writer) error {
			return writeFiguresCSV(w, "4a", SimConfig{}, TestbedConfig{NumJobs: []int{40}, Reps: 2, Seed: 1, Steps: 120})
		}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := tc.gen(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("output differs from testdata/%s:\n--- got ---\n%s\n--- want ---\n%s", tc.file, got.Bytes(), want)
			}
		})
	}
}

// writeFiguresCSV is the -csv file of prvm-exp -fig ids.
func writeFiguresCSV(w io.Writer, ids string, sim SimConfig, tb TestbedConfig) error {
	figs, err := SelectFigures(ids)
	if err != nil {
		return err
	}
	sweeps, err := RunFigures(io.Discard, figs, sim, tb)
	if err != nil {
		return err
	}
	return WriteCSV(w, sweeps...)
}

// prvm-exp -csv of the simulation figures is one table, in figure
// order: one header, the PlanetLab rows before the Google ones, and the
// same bytes on every run.
func TestSimCSVIsOneDeterministicTable(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := SimConfig{NumVMs: []int{40}, Reps: 1, Seed: 2, PMsPerType: 25}
	var outs [2]bytes.Buffer
	for i := range outs {
		if err := writeFiguresCSV(&outs[i], "3a,3b", cfg, TestbedConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Fatalf("two runs differ:\n%s\n---\n%s", outs[0].Bytes(), outs[1].Bytes())
	}
	out := outs[0].String()
	if n := strings.Count(out, "trace,algorithm,num_vms,"); n != 1 {
		t.Fatalf("%d header rows, want 1:\n%s", n, out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// 2 traces x 4 algorithms x 4 metrics + header.
	if len(lines) != 33 || !strings.HasPrefix(lines[1], "planetlab,") || !strings.HasPrefix(lines[32], "google,") {
		t.Fatalf("want 32 rows, PlanetLab first and Google last:\n%s", out)
	}
}
