package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the program declare the same workloads and
// metrics, within the driver's limits.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file %+v, program %q / %q", i, bf.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") || !nameRE.MatchString(w.name) {
			t.Errorf("workload %q breaks the driver's limits", w.name)
		}
	}
	check := func(kind string, file []declared, prog []metricDef, bounded bool) {
		if len(file) != len(prog) {
			t.Fatalf("%s: file has %d metrics, the program %d", kind, len(file), len(prog))
		}
		seen := map[string]bool{}
		for i, def := range prog {
			f := file[i]
			if f.Name != def.name || f.Unit != def.unit || f.Better != def.better {
				t.Errorf("%s %d: file %+v, program %+v", kind, i, f, def)
			}
			if !nameRE.MatchString(def.name) || !unitRE.MatchString(def.unit) || seen[def.name] {
				t.Errorf("%s %q: bad or repeated name or unit", kind, def.name)
			}
			seen[def.name] = true
			if def.better != "lower" && def.better != "higher" {
				t.Errorf("%s %q: better = %q", kind, def.name, def.better)
			}
			if bounded {
				if f.Bound == nil || *f.Bound != def.bound || def.bound <= 0 || def.bound > 0.25 {
					t.Errorf("%s %q: bound file %v, program %v", kind, def.name, f.Bound, def.bound)
				}
			} else if f.Bound != nil {
				t.Errorf("%s %q: per-layer metrics carry no bound", kind, def.name)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
	if bf.EndToEnd[0].Name != "setup_s" || bf.EndToEnd[0].Unit != "s" || bf.EndToEnd[0].Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s: %+v", bf.EndToEnd[0])
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 || len(bf.Paths) != 1 || bf.Paths[0] != "benchmarks" {
		t.Errorf("run_seconds %d, paths %v", bf.RunSeconds, bf.Paths)
	}
}

// driverLine is the last line of standard output of a -workload run.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func lastLine(t *testing.T, out []byte) []byte {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

// Every workload, untraced and traced at -smoke sizes, emits exactly
// the declared metrics — finite, correctly named, nothing undeclared —
// passes its output checks, and leaves nothing behind.
func TestSmokeEveryWorkloadEmitsTheDeclaredMetrics(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		for _, traced := range []string{"0", "1"} {
			w, traced := w, traced
			t.Run(w.Name+"/trace="+traced, func(t *testing.T) {
				base := t.TempDir()
				var out bytes.Buffer
				// The driver's own spelling of the flags.
				err := run(context.Background(), []string{
					"-smoke", "--workload", w.Name, "--seed", "3", "--seconds", "0.05", "--trace", traced,
				}, &out, base)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				var line driverLine
				dec := json.NewDecoder(bytes.NewReader(lastLine(t, out.Bytes())))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&line); err != nil {
					t.Fatalf("last line: %v\n%s", err, out.String())
				}
				if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
					t.Errorf("correct %v attempted %d failed %d\n%s", line.Correct, line.Attempted, line.Failed, out.String())
				}
				want := bf.EndToEnd
				if traced == "1" {
					want = bf.PerLayer
				}
				for _, d := range want {
					m, ok := line.Metrics[d.Name]
					if !ok {
						t.Errorf("declared metric %s not emitted", d.Name)
						continue
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
						t.Errorf("%s = %v %q, want a finite number in %q", d.Name, m.Value, m.Unit, d.Unit)
					}
					if traced == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, m.Value)
					}
					delete(line.Metrics, d.Name)
				}
				for name := range line.Metrics {
					t.Errorf("undeclared metric %s emitted", name)
				}
				if !strings.Contains(out.String(), `"claim": null`) {
					t.Error(`the summary must end with "claim": null`)
				}
				// Only the trace file may remain: DataDirs are removed.
				entries, err := os.ReadDir(base)
				if err != nil {
					t.Fatal(err)
				}
				for _, ent := range entries {
					if traced == "1" && ent.Name() == "trace-"+w.Name+".json" {
						continue
					}
					t.Errorf("left behind: %s", ent.Name())
				}
			})
		}
	}
}

// One command runs every workload and writes a document that -compare
// accepts against itself.
func TestSmokeDocumentAndCompare(t *testing.T) {
	base := t.TempDir()
	path := filepath.Join(t.TempDir(), "out.json")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-smoke", "-seconds", "0.05", "-seed", "5", "-out", path}, &out, base); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	d, err := readDocument(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Claim != nil || d.Header.GOMAXPROCS != fixedProcs || d.Header.Seed != 5 || d.Header.GoVersion == "" || d.Header.NumCPU < 1 {
		t.Errorf("header %+v claim %v", d.Header, d.Claim)
	}
	for _, w := range workloads {
		wr, ok := d.Workloads[w.name]
		if !ok || !wr.Correct || len(wr.EndToEnd) != len(endToEnd) || len(d.Header.Sizes[w.name]) == 0 {
			t.Errorf("%s: %+v", w.name, wr)
		}
	}
	var last document
	if err := json.Unmarshal(lastLine(t, out.Bytes()), &last); err != nil || len(last.Workloads) != len(workloads) {
		t.Errorf("the last line must be the document: %v", err)
	}
	out.Reset()
	if err := run(context.Background(), []string{"-compare", path, path}, &out, base); err != nil {
		t.Errorf("a file compared with itself: %v\n%s", err, out.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"}, {"-trace", "2"}, {"-seconds", "0"}, {"-compare", "only-one"}, {"stray"},
	} {
		if err := run(context.Background(), args, &bytes.Buffer{}, t.TempDir()); err == nil {
			t.Errorf("%v: want an error", args)
		}
	}
}
