// Command prvm-exp runs the paper's evaluation — the harness behind
// EXPERIMENTS.md. By default it writes the full report: Tables I–III,
// Figures 1 and 2, then the PlanetLab, Google and testbed figures
// (Figures 3–8). -fig picks figures instead, by a comma-separated list
// of IDs (3a 5a 6a 7a PlanetLab; 3b 5b 6b 7b Google; 4a 4b 8 testbed),
// written in the order given; each sweep they need runs once.
//
// Usage:
//
//	prvm-exp [-fig all|ID,ID,...] [-reps n] [-seed s] [-quick]
//	         [-vms 1000,2000,3000] [-pms n] [-csv file] [-series file]
//	         [-jobs 100,200,300] [-steps n] [-instances n] [-tcp]
//	         [-call-timeout d] [-call-retries n] [-retry-backoff d]
//	         [-faults spec] [-obsaddr host:port] [-metrics-out file]
//	prvm-exp -record out.jsonl[.gz] [-record-steps n] [-fig ID]
//	         [-seed s] [-vms n] [-pms n] [-rebalance-every n]
//	         [-rebalance-budget n] [-rebalance-pm-budget n]
//	         [-drain-below f]
//
// The paper uses 100 repetitions; the default here is sized for a
// small machine — pass -reps 100 to match the paper. -quick shrinks
// every sweep to a laptop-scale smoke run.
//
// The simulation sweeps (Figures 3, 5, 6, 7) run -vms VMs on -pms PMs
// per Table II type; -csv writes their data as one tidy CSV table, and
// -series one run's per-interval time series (the first figure's trace
// at the first -vms count). The testbed sweep (Figures 4, 8) runs -jobs
// jobs on -instances emulated instances for -steps control intervals;
// -tcp runs the control protocol over loopback TCP instead of in-memory
// pipes, -call-timeout, -call-retries and -retry-backoff tune the
// controller's fault-tolerant call path, and -faults injects
// deterministic transport faults, e.g.
//
//	prvm-exp -fig 4a -call-timeout 50ms -faults "seed=7,drop=0.01,err=0.01"
//
// (drop/delay faults need -call-timeout to be detected). A -csv table
// holds one kind of sweep, so it takes simulation or testbed figures,
// not both.
//
// -record switches to recording mode: one seeded PageRankVM run (the
// first figure's trace, the first -vms count, -pms hosts per type) is
// captured as a self-describing decision recording that prvm-replay
// can verify, diff and summarize (DESIGN.md §11).
//
// -obsaddr serves live telemetry over HTTP (/metrics Prometheus text,
// /events decision traces, /debug/pprof/) while the sweeps run;
// -obsaddr :0 picks an ephemeral port, printed on stderr. -metrics-out
// dumps the final metrics snapshot as JSON. Either flag enables
// instrumentation; with neither, the hot paths run uninstrumented.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"pagerankvm/internal/experiments"
	"pagerankvm/internal/obs/record"
	"pagerankvm/internal/opt"
	"pagerankvm/internal/testbed"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "prvm-exp:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("prvm-exp", flag.ContinueOnError)
	var (
		fig       = fs.String("fig", "all", "comma-separated figure IDs (3a,3b,4a,4b,5a,5b,6a,6b,7a,7b,8), or all for the full report")
		reps      = fs.Int("reps", 10, "repetitions per point (paper: 100)")
		seed      = fs.Int64("seed", 1, "base random seed")
		quick     = fs.Bool("quick", false, "tiny smoke-run configuration")
		vms       = fs.String("vms", "1000,2000,3000", "simulation VM counts")
		pms       = fs.Int("pms", 0, "simulation PMs per Table II type (0 = auto)")
		csvPath   = fs.String("csv", "", "also write the sweep data as tidy CSV to this file")
		series    = fs.String("series", "", "write one run's per-interval time series as CSV to this file (uses the first -vms count and the first figure's trace)")
		jobs      = fs.String("jobs", "100,200,300", "testbed job counts")
		steps     = fs.Int("steps", 1440, "testbed control intervals (paper: 4h at 10s)")
		instances = fs.Int("instances", testbed.DefaultPMs, "testbed emulated instances")
		tcp       = fs.Bool("tcp", false, "use loopback TCP for the testbed control protocol")
		callTO    = fs.Duration("call-timeout", 0, "testbed per-call transport deadline; 0 disables")
		callRet   = fs.Int("call-retries", testbed.DefaultCallRetries, "testbed transport retries before declaring an agent dead")
		backoff   = fs.Duration("retry-backoff", testbed.DefaultRetryBackoff, "testbed initial retry backoff (doubles per retry)")
		faults    = fs.String("faults", "", `testbed fault injection spec, e.g. "seed=7,drop=0.01,err=0.01,delay=5ms,delayprob=0.02,close=500"`)
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
	figs, err := experiments.SelectFigures(*fig)
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
	testbedFigs := 0
	for _, f := range figs {
		if f.Trace == experiments.Testbed {
			testbedFigs++
		}
	}
	if *csvPath != "" && testbedFigs > 0 && testbedFigs < len(figs) {
		return errors.New("-csv takes simulation figures or testbed figures, not both (pick them with -fig)")
	}
	if (*recPath != "" || *series != "") && figs[0].Trace == experiments.Testbed {
		return fmt.Errorf("-record and -series run the first figure's simulation trace, and %s is a testbed figure", figs[0].ID)
	}
	var faultCfg *testbed.FaultConfig
	if *faults != "" {
		cfg, err := testbed.ParseFaultSpec(*faults)
		if err != nil {
			return err
		}
		if (cfg.DropProb > 0 || cfg.DelayProb > 0) && *callTO == 0 {
			return errors.New("-faults with drop/delay needs -call-timeout (a dropped message otherwise blocks the controller forever)")
		}
		faultCfg = &cfg
	}

	if *recPath != "" {
		return runRecord(*recPath, record.RunMeta{
			Kind:                "sim",
			Trace:               figs[0].Trace,
			Seed:                *seed,
			NumVMs:              vmCounts[0],
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
	simCfg := experiments.SimConfig{NumVMs: vmCounts, Reps: *reps, Seed: *seed, PMsPerType: *pms, Obs: observer}
	transport := testbed.TransportInMemory
	if *tcp {
		transport = testbed.TransportTCP
	}
	tbCfg := experiments.TestbedConfig{
		NumJobs:      jobCounts,
		Reps:         *reps,
		Seed:         *seed,
		NumPMs:       *instances,
		Steps:        *steps,
		Transport:    transport,
		CallTimeout:  *callTO,
		CallRetries:  opt.I(*callRet),
		RetryBackoff: *backoff,
		Faults:       faultCfg,
		Obs:          observer,
	}
	var sweeps []*experiments.Sweep
	if *fig == "all" {
		start := time.Now()
		if err := experiments.WriteEvaluation(stdout, simCfg, tbCfg); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "total wall time: %v\n", time.Since(start).Round(time.Second))
	} else if sweeps, err = experiments.RunFigures(stdout, figs, simCfg, tbCfg); err != nil {
		return err
	}

	if *series != "" {
		tr := figs[0].Trace
		fmt.Fprintf(os.Stderr, "recording %s time series at %d VMs...\n", tr, vmCounts[0])
		simCfg.Trace, simCfg.Reps = tr, 1
		ts, err := experiments.RunTimeSeries(simCfg, vmCounts[0])
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

// runRecord is recording mode: one seeded PageRankVM run captured as a
// self-describing recording prvm-replay can verify.
func runRecord(path string, meta record.RunMeta) error {
	res, ndec, err := experiments.RecordToFile(path, meta)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "recorded %d decisions to %s (pms=%d energy=%.2fkWh migrations=%d slo=%.2f%%)\n",
		ndec, path, res.PMsUsed, res.EnergyKWh, res.Migrations, res.SLOViolationPct)
	return nil
}
