// Command prvm-bench is the allocs/ns gate over the repo's hot-path
// micro-benchmarks: it shells out to `go test -bench`, parses the
// standard benchmark output and writes a machine-readable report to a
// JSON file (BENCH.json by default). End-to-end numbers live in
// benchmarks/ (BENCHMARK.json); replay correctness is `make golden`.
//
// With -compare the run is additionally diffed against a recorded
// baseline report: any benchmark present in both reports fails the run
// when its ns/op regresses past -tolerance (default 15%) or its
// allocs/op increases. ns/op is machine- and load-dependent —
// comparing across different hardware needs a loose tolerance — while
// allocs/op compares exactly for the hot paths. Two exceptions:
// benchmarks already paying many allocs/op jitter by ±1 with goroutine
// scheduling and get a one-alloc slack; and an op that is a whole
// lattice build (≥ 10 ms) spans GC cycles, each of which empties the
// pooled wiring scratch, so its count moves by a refill — a few tens —
// from run to run and gets half its baseline as slack. A real
// regression on either kind of path adds allocations per item: for a
// build, tens of thousands per op. Those build-sized ops are also the
// ones whose B/op means something — the arenas a lattice or registry
// build allocates — so for them B/op is gated too, at +10 %.
//
// Usage:
//
//	prvm-bench [-bench regex] [-pkg ". ./internal/serve"] [-benchtime 1s] [-count 1]
//	           [-out BENCH.json] [-compare BENCH.json] [-tolerance 0.15]
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "prvm-bench:", err)
		os.Exit(1)
	}
}

// result is one parsed benchmark line.
type result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	BytesPerOp *float64           `json:"bytes_per_op,omitempty"`
	AllocsPer  *float64           `json:"allocs_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

type report struct {
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	Timestamp  string   `json:"timestamp"`
	BenchRegex string   `json:"bench_regex"`
	Results    []result `json:"results"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("prvm-bench", flag.ContinueOnError)
	var (
		benchRe   = fs.String("bench", "BenchmarkPlaceLookup|BenchmarkPlaceScan|BenchmarkSpaceWire|BenchmarkFactoredRegistryBuildM3C3|BenchmarkRanksCSR|BenchmarkRecordOverhead|BenchmarkTableCache|BenchmarkRebalanceStep|BenchmarkOpLine|BenchmarkWALReplay|BenchmarkReplayApply|BenchmarkServePlaceSequential|BenchmarkSimDay|BenchmarkGenWorkloads", "benchmark regex passed to go test -bench")
		pkg       = fs.String("pkg", ". ./internal/serve", "space-separated package patterns to benchmark")
		benchtime = fs.String("benchtime", "", "go test -benchtime value (empty = default)")
		count     = fs.Int("count", 1, "go test -count value")
		out       = fs.String("out", "BENCH.json", "output JSON file")
		baseline  = fs.String("compare", "", "baseline BENCH.json to gate against (empty = no gate)")
		tolerance = fs.Float64("tolerance", 0.15, "allowed fractional ns/op regression vs -compare baseline")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cmdArgs := []string{"test", "-run", "^$", "-bench", *benchRe, "-benchmem", "-count", strconv.Itoa(*count)}
	if *benchtime != "" {
		cmdArgs = append(cmdArgs, "-benchtime", *benchtime)
	}
	cmdArgs = append(cmdArgs, strings.Fields(*pkg)...)

	fmt.Fprintf(os.Stderr, "prvm-bench: go %s\n", strings.Join(cmdArgs, " "))
	cmd := exec.Command("go", cmdArgs...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go test -bench: %w", err)
	}
	_, _ = os.Stderr.Write(buf.Bytes())

	results, err := parseBench(&buf)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark results matched %q", *benchRe)
	}
	// The id-indexed lookup path must stay allocation-free: the
	// hotalloc analyzer and the alloc_gate test assert it statically
	// and in-process, and the harness refuses to bless a regression.
	for _, r := range results {
		if r.Name == "BenchmarkPlaceLookup/fast" && r.AllocsPer != nil && *r.AllocsPer > 0 {
			return fmt.Errorf("%s allocates %.1f allocs/op, want 0", r.Name, *r.AllocsPer)
		}
	}

	rep := report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		BenchRegex: *benchRe,
		Results:    results,
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "prvm-bench: wrote %s (%d results)\n", *out, len(rep.Results))
	if *baseline != "" {
		if err := compareBaseline(*baseline, rep, *tolerance); err != nil {
			return err
		}
	}
	return nil
}

// compareBaseline gates the current run against a recorded report:
// every benchmark present in both fails the run when its ns/op
// regresses by more than tol (fractional), its allocs/op increases
// at all, or — build-sized ops only — its B/op grows past 10 %.
// Benchmarks present only on one side are reported but never
// fail — the gate must not break when benchmarks are added or retired.
func compareBaseline(path string, cur report, tol float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("compare: %w", err)
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("compare: parse %s: %w", path, err)
	}
	baseBy := make(map[string]result, len(base.Results))
	for _, r := range base.Results {
		baseBy[r.Name] = r
	}
	var fails []string
	compared := 0
	for _, r := range cur.Results {
		b, ok := baseBy[r.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "  compare: %s: new benchmark, no baseline\n", r.Name)
			continue
		}
		compared++
		if b.NsPerOp > 0 && r.NsPerOp > b.NsPerOp*(1+tol) {
			fails = append(fails, fmt.Sprintf("%s: %.4g ns/op vs baseline %.4g (+%.0f%%, tolerance %.0f%%)",
				r.Name, r.NsPerOp, b.NsPerOp, 100*(r.NsPerOp/b.NsPerOp-1), 100*tol))
		}
		buildSized := b.NsPerOp >= 10e6
		if b.AllocsPer != nil && r.AllocsPer != nil {
			// Zero- and few-alloc hot paths compare exactly; paths
			// already paying many allocs/op jitter by ±1 with goroutine
			// scheduling; a whole lattice build per op spans GC cycles
			// that empty its pooled scratch and moves by a refill. A
			// real regression on those adds allocations per item.
			slack := 0.0
			switch {
			case buildSized:
				slack = *b.AllocsPer / 2
			case *b.AllocsPer >= 16:
				slack = 1
			}
			if *r.AllocsPer > *b.AllocsPer+slack {
				fails = append(fails, fmt.Sprintf("%s: %.1f allocs/op vs baseline %.1f — allocation regression fails",
					r.Name, *r.AllocsPer, *b.AllocsPer))
			}
		}
		if buildSized && b.BytesPerOp != nil && r.BytesPerOp != nil && *r.BytesPerOp > *b.BytesPerOp*1.10 {
			fails = append(fails, fmt.Sprintf("%s: %.4g B/op vs baseline %.4g (+%.0f%%, build-sized ops tolerate 10%%)",
				r.Name, *r.BytesPerOp, *b.BytesPerOp, 100*(*r.BytesPerOp / *b.BytesPerOp - 1)))
		}
	}
	if len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "  REGRESSION:", f)
		}
		return fmt.Errorf("compare: %d regression(s) vs %s", len(fails), path)
	}
	fmt.Fprintf(os.Stderr, "prvm-bench: compare OK — %d benchmarks within %.0f%% of %s, no alloc or build B/op regressions\n",
		compared, 100*tol, path)
	return nil
}

// parseBench reads standard `go test -bench` output: lines of the form
//
//	BenchmarkName/sub-8   1000   53.70 ns/op   0 B/op   0 allocs/op
//
// i.e. a name, an iteration count, then (value, unit) pairs.
func parseBench(r *bytes.Buffer) ([]result, error) {
	var results []result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // "Benchmark..." line without a count (e.g. a log line)
		}
		res := result{Name: trimProcSuffix(fields[0]), Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("parse %q: bad value %q", fields[0], fields[i])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				b := v
				res.BytesPerOp = &b
			case "allocs/op":
				a := v
				res.AllocsPer = &a
			default:
				if res.Metrics == nil {
					res.Metrics = map[string]float64{}
				}
				res.Metrics[unit] = v
			}
		}
		results = append(results, res)
	}
	return results, sc.Err()
}

// trimProcSuffix drops the trailing -GOMAXPROCS from a benchmark name
// ("BenchmarkX/fast-8" → "BenchmarkX/fast").
func trimProcSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}
