// Command prvm-sim runs the trace-driven simulation experiments of
// the paper (Figures 3, 5, 6 and 7): the four placement algorithms
// over increasing VM counts, with median [p1, p99] reporting across
// repetitions.
//
// Usage:
//
//	prvm-sim [-fig all|3a|3b|5a|5b|6a|6b|7a|7b] [-reps n] [-seed s]
//	         [-vms 1000,2000,3000] [-pms n]
//	         [-obsaddr host:port] [-metrics-out file]
//	prvm-sim -record out.jsonl[.gz] [-record-steps n]
//	         [-seed s] [-vms n] [-pms n] [-rebalance-every n]
//	         [-rebalance-budget n] [-rebalance-pm-budget n]
//	         [-drain-below f]
//
// The paper uses 100 repetitions; the default here is sized for a
// small machine — pass -reps 100 (or set PRVM_REPS) to match the
// paper.
//
// -record switches to standalone recording mode: one seeded PageRankVM
// run (trace from the first requested figure, the first -vms count,
// -pms hosts per type) is captured as a self-describing decision
// recording that prvm-replay can verify, diff and summarize (DESIGN.md
// §11).
//
// -obsaddr serves live telemetry over HTTP (/metrics Prometheus text,
// /events decision traces, /debug/pprof/) while the sweep runs; -obsaddr
// :0 picks an ephemeral port, printed on stderr. -metrics-out dumps the
// final metrics snapshot as JSON for benchmark trajectory tracking.
// Either flag enables instrumentation; with neither, the hot paths run
// uninstrumented.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"pagerankvm/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "prvm-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("prvm-sim", flag.ContinueOnError)
	var (
		fig       = fs.String("fig", "all", "figure id (3a,3b,5a,5b,6a,6b,7a,7b) or all")
		reps      = fs.Int("reps", defaultReps(), "repetitions per point (paper: 100)")
		seed      = fs.Int64("seed", 1, "base random seed")
		vms       = fs.String("vms", "1000,2000,3000", "comma-separated VM counts")
		pms       = fs.Int("pms", 0, "PMs per Table II type (0 = auto)")
		csvPath   = fs.String("csv", "", "also write the sweep data as tidy CSV to this file")
		series    = fs.String("series", "", "write one run's per-interval time series as CSV to this file (uses the first -vms count and the first figure's trace)")
		obsAddr   = fs.String("obsaddr", "", "serve telemetry (Prometheus metrics, decision traces, pprof) on this address; :0 picks a port")
		metOut    = fs.String("metrics-out", "", "write the final telemetry snapshot as JSON to this file")
		recPath   = fs.String("record", "", "record one seeded run as a decision recording at this path (.gz compresses) instead of sweeping")
		recStep   = fs.Int("record-steps", 0, "horizon of the recorded run in monitoring intervals (0 = the 24 h default)")
		rebEvery  = fs.Int("rebalance-every", 0, "recording mode: run a descheduler round every n monitoring intervals (0 disables)")
		rebBudget = fs.Int("rebalance-budget", 0, "recording mode: max migrations per descheduler round (0 = default)")
		rebPM     = fs.Int("rebalance-pm-budget", 0, "recording mode: max migrations off one PM per round (0 = default)")
		drainFrac = fs.Float64("drain-below", 0, "recording mode: fill fraction under which the descheduler evacuates a PM (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	counts, err := experiments.ParseCounts(*vms)
	if err != nil {
		return err
	}

	wanted, err := experiments.SelectFigures(*fig, false)
	if err != nil {
		return err
	}

	if *recPath != "" {
		return runRecord(*recPath, experiments.RecordConfig{
			Trace:               wanted[0].Trace,
			Seed:                *seed,
			NumVMs:              counts[0],
			PMsPerType:          *pms,
			Steps:               *recStep,
			RebalanceEvery:      *rebEvery,
			RebalanceBudget:     *rebBudget,
			RebalancePMBudget:   *rebPM,
			RebalanceDrainBelow: *drainFrac,
		})
	}

	observer, writeMetrics, err := experiments.Telemetry(*obsAddr, *metOut)
	if err != nil {
		return err
	}

	// One sweep per needed trace, reused by every requested figure.
	sweeps, err := experiments.RunFigures(os.Stdout, wanted, experiments.SimConfig{
		NumVMs:     counts,
		Reps:       *reps,
		Seed:       *seed,
		PMsPerType: *pms,
		Obs:        observer,
	}, experiments.TestbedConfig{})
	if err != nil {
		return err
	}
	if *series != "" {
		tr := wanted[0].Trace
		fmt.Fprintf(os.Stderr, "recording %s time series at %d VMs...\n", tr, counts[0])
		ts, err := experiments.RunTimeSeries(experiments.SimConfig{
			Trace:      tr,
			Reps:       1,
			Seed:       *seed,
			PMsPerType: *pms,
			Obs:        observer,
		}, counts[0])
		if err != nil {
			return err
		}
		if err := experiments.WriteFile(*series, ts.WriteCSV); err != nil {
			return err
		}
	}
	if *csvPath != "" {
		err := experiments.WriteFile(*csvPath, func(w io.Writer) error { return experiments.WriteCSV(w, sweeps...) })
		if err != nil {
			return err
		}
	}
	return writeMetrics()
}

// runRecord is standalone recording mode: one seeded PageRankVM run
// captured as a self-describing recording prvm-replay can verify.
func runRecord(path string, cfg experiments.RecordConfig) error {
	res, ndec, err := experiments.RecordToFile(path, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "recorded %d decisions to %s (pms=%d energy=%.2fkWh migrations=%d slo=%.2f%%)\n",
		ndec, path, res.PMsUsed, res.EnergyKWh, res.Migrations, res.SLOViolationPct)
	return nil
}

func defaultReps() int {
	if s := os.Getenv("PRVM_REPS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 10
}
