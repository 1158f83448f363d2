// Command benchmarks is the repository's benchmark: five named
// workloads, each reporting the same end-to-end metrics from an
// untraced run and the per-layer metrics from a traced one, with the
// outputs of the program under test checked inside the run. See
// README.md in this directory for why each workload exists, the metric
// glossary and how the metrics interact; BENCHMARK.json at the
// repository root declares the same names for the driver.
//
// Usage:
//
//	bash benchmarks/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out FILE] [-smoke]
//	bash benchmarks/run.sh -compare A.json B.json
//
// With -workload the last line of standard output is the driver's
// result object; without it every workload runs in turn and the last
// line is the whole result document (also written to -out).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
)

// fixedProcs pins the scheduler to the sandbox's two cores, so results
// recorded on a larger box stay comparable (-compare refuses files
// whose GOMAXPROCS differ).
const fixedProcs = 2

// scratchBase is where DataDirs and trace-<workload>.json files go,
// relative to the working directory: inside the checkout, named in
// .gitignore.
const scratchBase = ".bench_build/tmp"

// runCfg is what one workload run is given.
type runCfg struct {
	seed    int64
	seconds float64
	smoke   bool
	// tr is non-nil on the traced run.
	tr *tracer
}

// checkResult is one output check made inside a run.
type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is what one workload run produces.
type result struct {
	attempted, failed int64
	// e2e holds the end-to-end metrics, layer the per-layer ones
	// (traced run only), extra informational numbers that are printed
	// but not declared.
	e2e, layer, extra map[string]float64
	checks            []checkResult
	stages            []stageRow
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}, extra: map[string]float64{}}
}

// check records one output check; a failed check fails the run.
func (r *result) check(name string, ok bool, detail string) {
	for i := range r.checks {
		if r.checks[i].Name == name {
			if !ok && r.checks[i].OK {
				r.checks[i].OK, r.checks[i].Detail = false, detail
			}
			return
		}
	}
	if ok {
		detail = ""
	}
	r.checks = append(r.checks, checkResult{Name: name, OK: ok, Detail: detail})
}

// correct reports whether every check passed.
func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// workload is one named set of inputs.
type workload struct {
	name string
	why  string
	// sizes returns the input sizes stamped into the result header.
	sizes func(smoke bool) map[string]int64
	run   func(ctx context.Context, e *env, rc runCfg) (*result, error)
}

// workloads lists the benchmark's workloads in report order. The names
// and reasons are repeated in BENCHMARK.json (a test keeps them equal).
var workloads = []workload{
	{
		name:  "serve-small",
		why:   "Daemon over 128 PMs: Place is a sliver of each request, so HTTP, batching, WAL and snapshot cuts set the numbers; placement changes must not move them.",
		sizes: func(smoke bool) map[string]int64 { return serveSmallSizes(smoke).header() },
		run: func(ctx context.Context, e *env, rc runCfg) (*result, error) {
			return runServe(ctx, e, serveSmallSizes(rc.smoke), rc)
		},
	},
	{
		name:  "serve-large",
		why:   "Same daemon and op mix over 3200 PMs: the Algorithm 2 scan over >1000 used PMs per shard dominates; also prices full-WAL recovery.",
		sizes: func(smoke bool) map[string]int64 { return serveLargeSizes(smoke).header() },
		run: func(ctx context.Context, e *env, rc runCfg) (*result, error) {
			return runServe(ctx, e, serveLargeSizes(rc.smoke), rc)
		},
	},
	{
		name:  "sim-paper",
		why:   "The paper's section VI simulation through the library (3000 VMs, PlanetLab, 24 h): the researcher's use, carrying PMs used and energy as seed-determined outputs.",
		sizes: func(smoke bool) map[string]int64 { return simPaperSizes(smoke).header() },
		run: func(ctx context.Context, e *env, rc runCfg) (*result, error) {
			return runSimPaper(ctx, e, simPaperSizes(rc.smoke), rc)
		},
	},
	{
		name:  "table-build",
		why:   "Cold rank-table registry builds: lattice, pagerank and ranktable do the work, serve none; each built registry is then used by a bare placer, so a faster build that ranks worse shows.",
		sizes: func(smoke bool) map[string]int64 { return tableBuildSizes(smoke).header() },
		run: func(ctx context.Context, e *env, rc runCfg) (*result, error) {
			return runTableBuild(ctx, e, tableBuildSizes(rc.smoke), rc)
		},
	},
	{
		name:  "rebalance",
		why:   "Descheduler rounds to quiescence on fragmented 1200-PM clusters: the Release/ScoreOn/Place(exclude)/Host mutation path beside the scan path; an index that makes Host or Release dearer loses here.",
		sizes: func(smoke bool) map[string]int64 { return rebalanceWorkSizes(smoke).header() },
		run: func(ctx context.Context, e *env, rc runCfg) (*result, error) {
			return runRebalance(ctx, e, rebalanceWorkSizes(rc.smoke), rc)
		},
	},
}

func serveSmallSizes(smoke bool) serveSizes {
	if smoke {
		return serveSizes{pmsPerType: 16, fillVMs: 120, setupReps: 2, fills: 3, snapshotEvery: 400, tailOps: 100, recoveries: 2}
	}
	return serveSizes{pmsPerType: 64, fillVMs: 600, setupReps: 5, fills: 24, snapshotEvery: 50000, tailOps: 10000, recoveries: 5}
}

func serveLargeSizes(smoke bool) serveSizes {
	if smoke {
		return serveSizes{pmsPerType: 48, fillVMs: 400, setupReps: 1, fills: 1, snapshotEvery: -1, recoveries: 2}
	}
	return serveSizes{pmsPerType: 1600, fillVMs: 16000, setupReps: 1, fills: 1, snapshotEvery: -1, recoveries: 3}
}

// findWorkload returns the workload called name.
func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, scratchBase)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned when a run completed but a check failed.
var errIncorrect = errors.New("an output check failed")

// run is main without the process: it parses args, runs the selected
// workloads with their data under base, and prints to stdout.
func run(ctx context.Context, args []string, stdout io.Writer, base string) (err error) {
	fs := flag.NewFlagSet("benchmarks", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run only this workload (default: all)")
		seed    = fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 10, "length of each measured phase")
		trace   = fs.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
		out     = fs.String("out", "", "also write the result document to this file")
		smoke   = fs.Bool("smoke", false, "tiny sizes for tests; numbers are not comparable")
		compare = fs.Bool("compare", false, "compare two result documents: -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare needs two result files")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return errors.New("-trace takes 0 or 1")
	}
	if *seconds <= 0 || math.IsNaN(*seconds) {
		return errors.New("-seconds must be positive")
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{w}
	}

	runtime.GOMAXPROCS(fixedProcs)
	e, err := newEnv(base)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := e.cleanup(); err == nil {
			err = cerr
		}
	}()

	doc := newDocument(*seed, *seconds, *smoke, *trace == 1)
	incorrect := false
	for _, w := range selected {
		if err := ctx.Err(); err != nil {
			return err
		}
		doc.Header.Sizes[w.name] = w.sizes(*smoke)
		rc := runCfg{seed: *seed, seconds: *seconds, smoke: *smoke}
		if *trace == 1 {
			rc.tr = newTracer(w.name)
		}
		res, err := w.run(ctx, e, rc)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if rc.tr != nil {
			path := filepath.Join(base, "trace-"+w.name+".json")
			if err := rc.tr.writeFile(path, res.stages); err != nil {
				return err
			}
			res.extra["trace_spans"] = float64(rc.tr.spanCount())
		}
		wr := doc.add(w.name, res, *trace == 1)
		printWorkload(stdout, w.name, wr)
		if !wr.Correct {
			incorrect = true
		}
	}
	fmt.Fprintln(stdout, `summary: "claim": null — this benchmark defines names and bounds; it claims no gain.`)

	if *out != "" {
		if err := doc.writeFile(*out); err != nil {
			return err
		}
	}
	// The last line: the driver's object for a single workload, the
	// whole document otherwise.
	var last any = doc
	if *name != "" {
		last = doc.Workloads[*name].driverLine(*trace == 1)
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if incorrect {
		return errIncorrect
	}
	return nil
}

// header stamps what a result depends on besides the code.
type header struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
	Traced     bool    `json:"traced"`
	// Sizes holds each workload's input sizes.
	Sizes map[string]map[string]int64 `json:"sizes"`
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is one workload's part of the result document.
type workloadResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Extra     map[string]float64     `json:"extra,omitempty"`
	Checks    []checkResult          `json:"checks"`
	Stages    []stageRow             `json:"stages,omitempty"`
}

// driverLine is the object the driver reads from the last line.
func (w workloadResult) driverLine(traced bool) map[string]any {
	metrics := w.EndToEnd
	if traced {
		metrics = w.PerLayer
	}
	return map[string]any{
		"correct":   w.Correct,
		"attempted": w.Attempted,
		"failed":    w.Failed,
		"metrics":   metrics,
	}
}

// document is the -out file: header, every workload, and no claim.
type document struct {
	Header    header                    `json:"header"`
	Workloads map[string]workloadResult `json:"workloads"`
	// Claim is always null: the benchmark defines names, it claims no
	// gain.
	Claim *string `json:"claim"`
}

func newDocument(seed int64, seconds float64, smoke, traced bool) *document {
	h := header{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: fixedProcs,
		NumCPU:     runtime.NumCPU(),
		Commit:     "unknown",
		Seed:       seed,
		Seconds:    seconds,
		Smoke:      smoke,
		Traced:     traced,
		Sizes:      map[string]map[string]int64{},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				h.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+uncommitted"
			}
		}
		h.Commit += dirty
	}
	return &document{Header: h, Workloads: map[string]workloadResult{}}
}

// add converts a run's result into its document entry: the traced run
// reports per-layer metrics, the untraced one end-to-end metrics, and
// a metric that is missing or not finite fails the run.
func (d *document) add(name string, res *result, traced bool) workloadResult {
	wr := workloadResult{
		Attempted: res.attempted,
		Failed:    res.failed,
		Extra:     res.extra,
		Stages:    res.stages,
	}
	defs, vals := endToEnd, res.e2e
	if traced {
		defs, vals = perLayer, res.layer
	}
	m := make(map[string]metricValue, len(defs))
	for _, def := range defs {
		// A layer the workload does not touch reports 0; an end-to-end
		// metric must be there.
		v, ok := vals[def.name]
		if (!ok && !traced) || math.IsNaN(v) || math.IsInf(v, 0) {
			res.check("metric."+def.name, false, fmt.Sprintf("missing or not finite (%v)", v))
			v = 0
		}
		m[def.name] = metricValue{Value: v, Unit: def.unit}
	}
	for k := range vals {
		if _, ok := m[k]; !ok {
			res.check("metric."+k, false, "emitted but not declared")
		}
	}
	if traced {
		wr.PerLayer = m
	} else {
		wr.EndToEnd = m
	}
	if wr.Attempted < 1 {
		res.check("attempted", false, "no operation attempted")
	}
	wr.Checks = res.checks
	wr.Correct = res.correct()
	d.Workloads[name] = wr
	return wr
}

func (d *document) writeFile(path string) error {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printWorkload prints one workload's metrics by name with units, its
// checks and (traced) its stage table.
func printWorkload(w io.Writer, name string, wr workloadResult) {
	fmt.Fprintf(w, "== %s: attempted %d, failed %d, correct %v\n", name, wr.Attempted, wr.Failed, wr.Correct)
	printMetrics(w, wr.EndToEnd)
	printMetrics(w, wr.PerLayer)
	keys := make([]string, 0, len(wr.Extra))
	for k := range wr.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  (info) %-34s %14.4f\n", k, wr.Extra[k])
	}
	printStages(w, wr.Stages)
	for _, c := range wr.Checks {
		if c.OK {
			fmt.Fprintf(w, "  check ok   %s\n", c.Name)
		} else {
			fmt.Fprintf(w, "  check FAIL %s: %s\n", c.Name, c.Detail)
		}
	}
}

func printMetrics(w io.Writer, m map[string]metricValue) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-41s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}
