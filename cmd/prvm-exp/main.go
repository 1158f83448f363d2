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
	if err := experiments.WriteEvaluation(os.Stdout,
		experiments.SimConfig{NumVMs: vmCounts, Reps: *reps, Seed: *seed, Obs: observer},
		experiments.TestbedConfig{NumJobs: jobCounts, Reps: *reps, Seed: *seed, Steps: *steps, Obs: observer},
	); err != nil {
		return err
	}
	fmt.Printf("total wall time: %v\n", time.Since(start).Round(time.Second))
	return writeMetrics()
}
