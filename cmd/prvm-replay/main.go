// Command prvm-replay inspects, verifies and diffs placement decision
// recordings (internal/obs/record, DESIGN.md §11).
//
// Usage:
//
//	prvm-replay rec.jsonl[.gz]           summarize a recording
//	prvm-replay -verify rec.jsonl[.gz]   golden regression: re-run the
//	                                     recorded config through the
//	                                     current code and require a
//	                                     bit-identical decision stream
//	prvm-replay -diff a.jsonl b.jsonl    decision-by-decision diff of
//	                                     two recordings
//	prvm-replay -phases rec.jsonl[.gz]   per-phase latency percentiles
//
// -verify replays from the recording's self-describing header (trace,
// seed, VM count, inventory, horizon), reports replay throughput, and
// exits nonzero on the first divergent decision — the CI gate that
// placement semantics did not drift. -diff compares two existing
// recordings positionally (e.g. the same seed recorded by two builds)
// and exits nonzero when they diverge. Decision identity ignores
// metadata (seq, engine flag, timings); scores are compared bitwise.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pagerankvm/internal/experiments"
	"pagerankvm/internal/obs/record"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "prvm-replay:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("prvm-replay", flag.ContinueOnError)
	var (
		verify = fs.Bool("verify", false, "replay the recording through the current code and fail on any decision divergence")
		diff   = fs.Bool("diff", false, "diff two recordings decision-by-decision")
		phases = fs.Bool("phases", false, "print per-phase latency percentiles only")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: prvm-replay [-verify | -diff | -phases] recording [recording]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *diff:
		if fs.NArg() != 2 {
			return fmt.Errorf("-diff needs two recordings, got %d", fs.NArg())
		}
		return runDiff(fs.Arg(0), fs.Arg(1))
	case *verify:
		if fs.NArg() != 1 {
			return fmt.Errorf("-verify needs one recording, got %d", fs.NArg())
		}
		return runVerify(fs.Arg(0))
	case *phases:
		if fs.NArg() != 1 {
			return fmt.Errorf("-phases needs one recording, got %d", fs.NArg())
		}
		return runPhases(fs.Arg(0))
	default:
		if fs.NArg() != 1 {
			fs.Usage()
			return fmt.Errorf("need one recording, got %d", fs.NArg())
		}
		return runSummary(fs.Arg(0))
	}
}

// runVerify is the golden regression: reconstruct the recorded run
// from its header, diff the fresh decision stream against the
// recording, and report replay throughput.
func runVerify(path string) error {
	hdr, recorded, _, err := record.ReadAll(path)
	if err != nil {
		return err
	}
	printMeta(path, hdr.Meta)
	start := time.Now()
	replayed, _, res, err := experiments.Replay(hdr.Meta)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	rate := float64(len(replayed)) / elapsed.Seconds()
	fmt.Printf("replayed %d decisions in %v (%.0f decisions/s)\n", len(replayed), elapsed.Round(time.Millisecond), rate)
	fmt.Printf("replay result: pms=%d energy=%.2fkWh migrations=%d slo=%.2f%%\n",
		res.PMsUsed, res.EnergyKWh, res.Migrations, res.SLOViolationPct)
	sum := record.Diff(recorded, replayed)
	if err := sum.Write(os.Stdout); err != nil {
		return err
	}
	if !sum.Clean() {
		return fmt.Errorf("recording diverges from current code (%d of %d decisions)", sum.Divergent, sum.ADecisions)
	}
	fmt.Println("verify: OK — current code reproduces the recording bit-identically")
	return nil
}

func runDiff(pathA, pathB string) error {
	_, a, _, err := record.ReadAll(pathA)
	if err != nil {
		return fmt.Errorf("%s: %w", pathA, err)
	}
	_, b, _, err := record.ReadAll(pathB)
	if err != nil {
		return fmt.Errorf("%s: %w", pathB, err)
	}
	fmt.Printf("A: %s (%d decisions)\nB: %s (%d decisions)\n", pathA, len(a), pathB, len(b))
	sum := record.Diff(a, b)
	if err := sum.Write(os.Stdout); err != nil {
		return err
	}
	if !sum.Clean() {
		return fmt.Errorf("recordings diverge (%d decisions)", sum.Divergent)
	}
	return nil
}

func runPhases(path string) error {
	_, decisions, spans, err := record.ReadAll(path)
	if err != nil {
		return err
	}
	return record.WritePhases(os.Stdout, record.SummarizePhases(decisions, spans))
}

func runSummary(path string) error {
	hdr, decisions, spans, err := record.ReadAll(path)
	if err != nil {
		return err
	}
	printMeta(path, hdr.Meta)
	placed, opened, rejected, fast := 0, 0, 0, 0
	for _, d := range decisions {
		switch {
		case d.Rejected:
			rejected++
		case d.Opened:
			opened++
		default:
			placed++
		}
		if d.Fast {
			fast++
		}
	}
	fmt.Printf("decisions: %d (placed %d, opened %d, rejected %d; fast-path %d), spans: %d\n",
		len(decisions), placed, opened, rejected, fast, len(spans))
	return record.WritePhases(os.Stdout, record.SummarizePhases(decisions, spans))
}

func printMeta(path string, m record.RunMeta) {
	fmt.Printf("%s: %s run, trace=%s seed=%d vms=%d pms/type=%d steps=%d",
		path, orUnknown(m.Kind), orUnknown(m.Trace), m.Seed, m.NumVMs, m.PMsPerType, m.Steps)
	if m.Algorithm != "" {
		fmt.Printf(" alg=%s", m.Algorithm)
	}
	fmt.Println()
}

func orUnknown(s string) string {
	if s == "" {
		return "?"
	}
	return s
}
