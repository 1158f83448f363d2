// Command prvm-rank builds Profile→PageRank score tables and prints
// the paper's Figure 1 rank values and Figure 2 quality comparisons.
//
// Usage:
//
//	prvm-rank [-mode absorption|reverse-pr|forward-pr] [-top n]
//	          [-pm M3|C3] [-save file] [-compare] [-workers n]
//
// Without -pm it uses the paper's running example (capacity [4,4,4,4],
// VM types {[1,1],[1,1,1,1]}); with -pm it builds the factored table
// of a Table II host over the Table I VM catalog.
package main

import (
	"flag"
	"fmt"
	"os"

	"pagerankvm/internal/experiments"
	"pagerankvm/internal/ranktable"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "prvm-rank:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("prvm-rank", flag.ContinueOnError)
	var (
		mode    = fs.String("mode", "absorption", "rank mode: absorption, reverse-pr, forward-pr")
		top     = fs.Int("top", 10, "print the top-n profiles of the example table")
		pmType  = fs.String("pm", "", "build the factored table of a Table II PM type instead")
		save    = fs.String("save", "", "serialize the example table to this file")
		compare = fs.Bool("compare", true, "print the Figure 2 quality comparisons")
		workers = fs.Int("workers", 0, "goroutines wiring lattice edges (0 = GOMAXPROCS; output is identical for any count)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts, err := parseMode(*mode)
	if err != nil {
		return err
	}
	opts.WireWorkers = *workers

	if *pmType != "" {
		return describePMType(*pmType, opts)
	}

	if err := experiments.WriteFigure1(os.Stdout, opts); err != nil {
		return err
	}
	if *compare {
		fmt.Println()
		if err := experiments.WriteFigure2(os.Stdout, opts); err != nil {
			return err
		}
	}
	table, err := experiments.PaperExampleTable(opts)
	if err != nil {
		return err
	}
	if *top > 0 {
		fmt.Printf("\ntop %d profiles:\n", *top)
		for _, e := range table.Top(*top) {
			fmt.Printf("  %v  %.6f\n", e.Profile, e.Score)
		}
	}
	stats := table.Stats()
	fmt.Printf("\ntable: %d profiles, %d edges, %d iterations, converged=%v\n",
		stats.Nodes, stats.Edges, stats.Iterations, stats.Converged)

	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			return err
		}
		if err := table.Save(f); err != nil {
			_ = f.Close()
			return err
		}
		// Write path: the close error is the last chance to hear about
		// a truncated table file.
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("saved table to %s\n", *save)
	}
	return nil
}

func parseMode(s string) (ranktable.Options, error) {
	switch s {
	case "absorption":
		return ranktable.Options{Mode: ranktable.ModeAbsorption}, nil
	case "reverse-pr":
		return ranktable.Options{Mode: ranktable.ModeReversePR}, nil
	case "forward-pr":
		return ranktable.Options{Mode: ranktable.ModeForwardPR}, nil
	default:
		return ranktable.Options{}, fmt.Errorf("unknown mode %q", s)
	}
}

func describePMType(name string, opts ranktable.Options) error {
	cat, err := experiments.AmazonCatalog()
	if err != nil {
		return err
	}
	shape, ok := cat.Shape(name)
	if !ok {
		return fmt.Errorf("unknown PM type %q (want M3 or C3)", name)
	}
	reg, err := cat.BuildRegistry(opts)
	if err != nil {
		return err
	}
	ranker, _ := reg.Get(name)
	fmt.Printf("PM type %s: %d dimensions, %d canonical joint profiles (factored ranker)\n",
		name, shape.NumDims(), shape.NumProfiles())
	empty, _ := ranker.Score(shape.Zero())
	full, _ := ranker.Score(shape.Capacity())
	fmt.Printf("score(empty) = %.6g\nscore(full)  = %.6g\n", empty, full)
	return nil
}
