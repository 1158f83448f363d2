// Command prvm-testbed runs the GENI-testbed emulation experiments of
// the paper (Figures 4(a), 4(b) and 8): a centralized controller
// assigning jobs to 10 emulated instances over message-passing agents.
//
// Usage:
//
//	prvm-testbed [-fig all|4a|4b|8] [-jobs 100,200,300] [-reps n]
//	             [-steps n] [-pms n] [-tcp]
//	             [-call-timeout d] [-call-retries n] [-retry-backoff d]
//	             [-faults spec]
//	             [-obsaddr host:port] [-metrics-out file]
//
// -tcp runs the control protocol over real loopback TCP sockets
// instead of in-memory pipes. -call-timeout, -call-retries and
// -retry-backoff tune the controller's fault-tolerant call path;
// -faults injects deterministic transport faults, e.g.
//
//	prvm-testbed -fig 4a -call-timeout 50ms \
//	    -faults "seed=7,drop=0.01,err=0.01"
//
// (drop/delay faults need -call-timeout to be detected). -obsaddr
// serves live telemetry (Prometheus metrics, decision traces, pprof —
// including the controller's per-request control-protocol latency
// histogram); -metrics-out dumps the final snapshot as JSON.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pagerankvm/internal/experiments"
	"pagerankvm/internal/opt"
	"pagerankvm/internal/testbed"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "prvm-testbed:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("prvm-testbed", flag.ContinueOnError)
	var (
		fig     = fs.String("fig", "all", "figure id (4a, 4b, 8) or all")
		jobs    = fs.String("jobs", "100,200,300", "comma-separated job counts")
		reps    = fs.Int("reps", 10, "repetitions per point")
		steps   = fs.Int("steps", 1440, "control intervals (paper: 4h at 10s)")
		pms     = fs.Int("pms", testbed.DefaultPMs, "emulated instances")
		seed    = fs.Int64("seed", 1, "base random seed")
		tcp     = fs.Bool("tcp", false, "use loopback TCP for the control protocol")
		callTO  = fs.Duration("call-timeout", 0, "per-call transport deadline; 0 disables")
		callRet = fs.Int("call-retries", testbed.DefaultCallRetries, "transport retries before declaring an agent dead")
		backoff = fs.Duration("retry-backoff", testbed.DefaultRetryBackoff, "initial retry backoff (doubles per retry)")
		faults  = fs.String("faults", "", `fault injection spec, e.g. "seed=7,drop=0.01,err=0.01,delay=5ms,delayprob=0.02,close=500"`)
		csvPath = fs.String("csv", "", "also write the sweep data as tidy CSV to this file")
		obsAddr = fs.String("obsaddr", "", "serve telemetry (Prometheus metrics, decision traces, pprof) on this address; :0 picks a port")
		metOut  = fs.String("metrics-out", "", "write the final telemetry snapshot as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	counts, err := experiments.ParseCounts(*jobs)
	if err != nil {
		return err
	}
	observer, writeMetrics, err := experiments.Telemetry(*obsAddr, *metOut)
	if err != nil {
		return err
	}
	wanted, err := experiments.SelectFigures(*fig, true)
	if err != nil {
		return err
	}

	transport := testbed.TransportInMemory
	if *tcp {
		transport = testbed.TransportTCP
	}
	var faultCfg *testbed.FaultConfig
	if *faults != "" {
		cfg, err := testbed.ParseFaultSpec(*faults)
		if err != nil {
			return err
		}
		if (cfg.DropProb > 0 || cfg.DelayProb > 0) && *callTO == 0 {
			return fmt.Errorf("-faults with drop/delay needs -call-timeout (a dropped message otherwise blocks the controller forever)")
		}
		faultCfg = &cfg
	}
	sweeps, err := experiments.RunFigures(os.Stdout, wanted, experiments.SimConfig{}, experiments.TestbedConfig{
		NumJobs:      counts,
		Reps:         *reps,
		Seed:         *seed,
		NumPMs:       *pms,
		Steps:        *steps,
		Transport:    transport,
		CallTimeout:  *callTO,
		CallRetries:  opt.I(*callRet),
		RetryBackoff: *backoff,
		Faults:       faultCfg,
		Obs:          observer,
	})
	if err != nil {
		return err
	}
	if *csvPath != "" {
		err := experiments.WriteFile(*csvPath, func(w io.Writer) error { return experiments.WriteCSV(w, sweeps...) })
		if err != nil {
			return err
		}
	}
	return writeMetrics()
}
