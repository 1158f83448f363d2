// Command prvm-bench runs the repo's hot-path micro-benchmarks and
// writes a machine-readable summary to a JSON file (BENCH_pr14.json by
// default). It shells out to `go test -bench`, parses the standard
// benchmark output, and pairs up before/after variants — fast vs
// legacy, csr vs slices, parallel vs serial, recording off vs on,
// cache miss vs hit — into explicit speedup comparisons so a reviewer
// (or CI) can assert on the ratios. It then records and replays one
// small seeded simulation in-process, folding replay throughput and
// per-phase latency percentiles into the report (DESIGN.md §11).
//
// With -compare the run is additionally diffed against a recorded
// baseline report: any benchmark present in both reports fails the run
// when its ns/op regresses past -tolerance (default 15%) or its
// allocs/op increases. ns/op is machine- and load-dependent —
// comparing across different hardware needs a loose tolerance — while
// allocs/op compares exactly for the serial hot paths. The one
// exception: benchmarks already paying many allocs/op (the parallel
// work-stealing builds) jitter by ±1 with goroutine scheduling, so
// those get a one-alloc slack — a real regression on such a path adds
// allocations per item, far more than one per op.
//
// Usage:
//
//	prvm-bench [-bench regex] [-pkg ./...] [-benchtime 1s] [-count 1]
//	           [-out BENCH_pr14.json] [-replay-vms n]
//	           [-compare BENCH_prN.json] [-tolerance 0.15]
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"pagerankvm/internal/experiments"
	"pagerankvm/internal/obs/record"
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

// comparison relates a baseline variant to its optimized counterpart
// under the same parent benchmark.
type comparison struct {
	Benchmark string   `json:"benchmark"`
	Baseline  string   `json:"baseline"`
	Candidate string   `json:"candidate"`
	SpeedupX  float64  `json:"speedup_x"` // baseline ns/op divided by candidate ns/op
	BaseNs    float64  `json:"baseline_ns_per_op"`
	CandNs    float64  `json:"candidate_ns_per_op"`
	BaseAlloc *float64 `json:"baseline_allocs_per_op,omitempty"`
	CandAlloc *float64 `json:"candidate_allocs_per_op,omitempty"`
}

type report struct {
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	Timestamp  string        `json:"timestamp"`
	BenchRegex string        `json:"bench_regex"`
	Results    []result      `json:"results"`
	Compare    []comparison  `json:"comparisons"`
	Replay     *replayReport `json:"replay,omitempty"`
}

// replayReport is the record/replay macro-benchmark: one small seeded
// simulation recorded to a gzip JSONL file and replayed from its
// header, with decision throughput and the recording's per-phase
// latency percentiles.
type replayReport struct {
	NumVMs          int                   `json:"num_vms"`
	PMsPerType      int                   `json:"pms_per_type"`
	Steps           int                   `json:"steps"`
	Seed            int64                 `json:"seed"`
	Decisions       int64                 `json:"decisions"`
	RecordSeconds   float64               `json:"record_seconds"`
	ReplaySeconds   float64               `json:"replay_seconds"`
	DecisionsPerSec float64               `json:"replay_decisions_per_sec"`
	Phases          []record.PhaseSummary `json:"phases"`
}

// variantPairs names the (baseline, candidate) sub-benchmark pairs the
// harness knows how to relate. Order matters only for the report.
var variantPairs = [][2]string{
	{"legacy", "fast"},
	{"slices", "csr"},
	{"serial", "parallel"},
	// Recording off vs on: the "speedup" is below 1 by design — it
	// prices what enabling decision recording costs a full Place call.
	{"off", "on"},
	// Cache miss vs hit: the ratio is the per-lookup win of reusing a
	// built table instead of rebuilding it.
	{"miss", "hit"},
}

func run(args []string) error {
	fs := flag.NewFlagSet("prvm-bench", flag.ContinueOnError)
	var (
		benchRe   = fs.String("bench", "BenchmarkPlaceLookup|BenchmarkPlaceScan|BenchmarkSpaceWire|BenchmarkRanksCSR|BenchmarkRecordOverhead|BenchmarkTableCache|BenchmarkRebalanceStep", "benchmark regex passed to go test -bench")
		pkg       = fs.String("pkg", ".", "package pattern to benchmark")
		benchtime = fs.String("benchtime", "", "go test -benchtime value (empty = default)")
		count     = fs.Int("count", 1, "go test -count value")
		out       = fs.String("out", "BENCH_pr14.json", "output JSON file")
		replayVMs = fs.Int("replay-vms", 120, "VM count of the record/replay macro-benchmark (0 disables it)")
		baseline  = fs.String("compare", "", "baseline BENCH_prN.json to gate against (empty = no gate)")
		tolerance = fs.Float64("tolerance", 0.15, "allowed fractional ns/op regression vs -compare baseline")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cmdArgs := []string{"test", "-run", "^$", "-bench", *benchRe, "-benchmem", "-count", strconv.Itoa(*count)}
	if *benchtime != "" {
		cmdArgs = append(cmdArgs, "-benchtime", *benchtime)
	}
	cmdArgs = append(cmdArgs, *pkg)

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
		Compare:    pairUp(results),
	}
	if *replayVMs > 0 {
		rr, err := benchReplay(*replayVMs)
		if err != nil {
			return fmt.Errorf("replay benchmark: %w", err)
		}
		rep.Replay = rr
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "prvm-bench: wrote %s (%d results, %d comparisons)\n", *out, len(rep.Results), len(rep.Compare))
	for _, c := range rep.Compare {
		fmt.Fprintf(os.Stderr, "  %s: %s %.4gx faster than %s (%.4g vs %.4g ns/op)\n",
			c.Benchmark, c.Candidate, c.SpeedupX, c.Baseline, c.CandNs, c.BaseNs)
	}
	if rep.Replay != nil {
		fmt.Fprintf(os.Stderr, "  replay: %d decisions at %.0f decisions/s (record %.2fs, replay %.2fs)\n",
			rep.Replay.Decisions, rep.Replay.DecisionsPerSec, rep.Replay.RecordSeconds, rep.Replay.ReplaySeconds)
	}
	if *baseline != "" {
		if err := compareBaseline(*baseline, rep, *tolerance); err != nil {
			return err
		}
	}
	return nil
}

// compareBaseline gates the current run against a recorded report:
// every benchmark present in both fails the run when its ns/op
// regresses by more than tol (fractional) or its allocs/op increases
// at all. Benchmarks present only on one side are reported but never
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
		if b.AllocsPer != nil && r.AllocsPer != nil {
			// Zero- and few-alloc hot paths compare exactly; paths
			// already paying many allocs/op (parallel work-stealing
			// builds) jitter by ±1 with goroutine scheduling, and a
			// real regression there adds far more than one alloc/op.
			slack := 0.0
			if *b.AllocsPer >= 16 {
				slack = 1
			}
			if *r.AllocsPer > *b.AllocsPer+slack {
				fails = append(fails, fmt.Sprintf("%s: %.1f allocs/op vs baseline %.1f — allocation regression fails",
					r.Name, *r.AllocsPer, *b.AllocsPer))
			}
		}
	}
	if len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "  REGRESSION:", f)
		}
		return fmt.Errorf("compare: %d regression(s) vs %s", len(fails), path)
	}
	fmt.Fprintf(os.Stderr, "prvm-bench: compare OK — %d benchmarks within %.0f%% of %s, no alloc regressions\n",
		compared, 100*tol, path)
	return nil
}

// benchReplay records one small seeded simulation to a temp file and
// replays it from its header, timing both halves. The replay must diff
// clean against the recording — a divergence is a correctness bug, not
// a slow run, so it fails the harness.
func benchReplay(numVMs int) (*replayReport, error) {
	cfg := experiments.RecordConfig{Seed: 11, NumVMs: numVMs, PMsPerType: 8, Steps: 48}
	dir, err := os.MkdirTemp("", "prvm-bench-replay")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	path := filepath.Join(dir, "run.jsonl.gz")

	recStart := time.Now()
	_, ndec, err := experiments.RecordToFile(path, cfg)
	if err != nil {
		return nil, err
	}
	recSec := time.Since(recStart).Seconds()

	hdr, recorded, spans, err := record.ReadAll(path)
	if err != nil {
		return nil, err
	}
	repStart := time.Now()
	replayed, _, _, err := experiments.Replay(hdr.Meta)
	if err != nil {
		return nil, err
	}
	repSec := time.Since(repStart).Seconds()
	if sum := record.Diff(recorded, replayed); !sum.Clean() {
		return nil, fmt.Errorf("replay diverged from recording: %d of %d decisions", sum.Divergent, sum.ADecisions)
	}

	// The header carries the config with defaults resolved.
	return &replayReport{
		NumVMs:          hdr.Meta.NumVMs,
		PMsPerType:      hdr.Meta.PMsPerType,
		Steps:           hdr.Meta.Steps,
		Seed:            hdr.Meta.Seed,
		Decisions:       ndec,
		RecordSeconds:   recSec,
		ReplaySeconds:   repSec,
		DecisionsPerSec: float64(len(replayed)) / repSec,
		Phases:          record.SummarizePhases(recorded, spans),
	}, nil
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

// pairUp matches known baseline/candidate sub-benchmark variants under
// the same parent and computes their speedup ratios. With -count > 1
// the last sample of each name wins.
func pairUp(results []result) []comparison {
	byName := make(map[string]result, len(results))
	for _, r := range results {
		byName[r.Name] = r
	}
	var comps []comparison
	seen := map[string]bool{}
	for _, r := range results {
		i := strings.LastIndex(r.Name, "/")
		if i < 0 {
			continue
		}
		parent := r.Name[:i]
		if seen[parent] {
			continue
		}
		for _, pair := range variantPairs {
			base, ok1 := byName[parent+"/"+pair[0]]
			cand, ok2 := byName[parent+"/"+pair[1]]
			if !ok1 || !ok2 || cand.NsPerOp <= 0 {
				continue
			}
			seen[parent] = true
			comps = append(comps, comparison{
				Benchmark: parent,
				Baseline:  pair[0],
				Candidate: pair[1],
				SpeedupX:  base.NsPerOp / cand.NsPerOp,
				BaseNs:    base.NsPerOp,
				CandNs:    cand.NsPerOp,
				BaseAlloc: base.AllocsPer,
				CandAlloc: cand.AllocsPer,
			})
		}
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i].Benchmark < comps[j].Benchmark })
	return comps
}
