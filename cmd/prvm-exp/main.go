// Command prvm-exp regenerates every table and figure of the paper's
// evaluation in one run — the harness behind EXPERIMENTS.md.
//
// Usage:
//
//	prvm-exp [-reps n] [-vms 1000,2000,3000] [-jobs 100,200,300]
//	         [-steps n] [-quick] [-obsaddr host:port] [-metrics-out file]
//
// -quick shrinks every sweep to a laptop-scale smoke run. -obsaddr
// serves live telemetry (Prometheus metrics, decision traces, pprof) while
// the harness runs; -metrics-out dumps the final snapshot as JSON.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pagerankvm/internal/experiments"
	"pagerankvm/internal/ranktable"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "prvm-exp:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("prvm-exp", flag.ContinueOnError)
	var (
		reps    = fs.Int("reps", 10, "repetitions per point (paper: 100)")
		vms     = fs.String("vms", "1000,2000,3000", "simulation VM counts")
		jobs    = fs.String("jobs", "100,200,300", "testbed job counts")
		steps   = fs.Int("steps", 1440, "testbed control intervals")
		seed    = fs.Int64("seed", 1, "base random seed")
		quick   = fs.Bool("quick", false, "tiny smoke-run configuration")
		obsAddr = fs.String("obsaddr", "", "serve telemetry (Prometheus metrics, decision traces, pprof) on this address; :0 picks a port")
		metOut  = fs.String("metrics-out", "", "write the final telemetry snapshot as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	observer, writeMetrics, err := experiments.Telemetry(*obsAddr, *metOut)
	if err != nil {
		return err
	}
	vmCounts, err := experiments.ParseCounts(*vms)
	if err != nil {
		return err
	}
	jobCounts, err := experiments.ParseCounts(*jobs)
	if err != nil {
		return err
	}
	if *quick {
		vmCounts, jobCounts = []int{200}, []int{40}
		*reps, *steps = 2, 120
	}

	start := time.Now()
	out := os.Stdout

	fmt.Fprintf(out, "PageRankVM evaluation harness — reps=%d, vms=%v, jobs=%v, seed=%d\n\n",
		*reps, vmCounts, jobCounts, *seed)

	// Tables I-III.
	for _, write := range []func() error{
		func() error { return experiments.WriteTable1(out) },
		func() error { return experiments.WriteTable2(out) },
		func() error { return experiments.WriteTable3(out) },
	} {
		if err := write(); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}

	// Figures 1 and 2 (profile ranking).
	if err := experiments.WriteFigure1(out, ranktable.Options{Obs: observer}); err != nil {
		return err
	}
	fmt.Fprintln(out)
	if err := experiments.WriteFigure2(out, ranktable.Options{Obs: observer}); err != nil {
		return err
	}
	fmt.Fprintln(out)

	// Simulation sweeps (Figures 3, 5, 6, 7).
	type simFig struct {
		metric experiments.Metric
		title  string
	}
	for _, tr := range []string{"planetlab", "google"} {
		fmt.Fprintf(os.Stderr, "simulation sweep (%s)...\n", tr)
		sweep, err := experiments.RunSimSweep(experiments.SimConfig{
			Trace:  tr,
			NumVMs: vmCounts,
			Reps:   *reps,
			Seed:   *seed,
			Obs:    observer,
		})
		if err != nil {
			return err
		}
		sub := "a"
		if tr == "google" {
			sub = "b"
		}
		for _, f := range []simFig{
			{metric: experiments.MetricPMs, title: "Figure 3(" + sub + "): PMs used"},
			{metric: experiments.MetricEnergy, title: "Figure 5(" + sub + "): energy"},
			{metric: experiments.MetricMigrations, title: "Figure 6(" + sub + "): migrations"},
			{metric: experiments.MetricSLO, title: "Figure 7(" + sub + "): SLO violations"},
		} {
			if err := sweep.WriteFigure(out, f.metric, f.title); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
	}

	// Testbed sweeps (Figures 4 and 8).
	fmt.Fprintln(os.Stderr, "testbed sweep...")
	tb, err := experiments.RunTestbedSweep(experiments.TestbedConfig{
		NumJobs: jobCounts,
		Reps:    *reps,
		Seed:    *seed,
		Steps:   *steps,
		Obs:     observer,
	})
	if err != nil {
		return err
	}
	for _, f := range []struct {
		metric experiments.Metric
		title  string
	}{
		{metric: experiments.MetricPMs, title: "Figure 4(a): PMs used"},
		{metric: experiments.MetricMigrations, title: "Figure 4(b): migrations"},
		{metric: experiments.MetricSLO, title: "Figure 8: SLO violations"},
	} {
		if err := tb.WriteFigure(out, f.metric, f.title); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}

	fmt.Fprintf(out, "total wall time: %v\n", time.Since(start).Round(time.Second))
	return writeMetrics()
}
