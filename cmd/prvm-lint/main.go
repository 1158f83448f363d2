// Command prvm-lint runs the domain-invariant static-analysis suite of
// internal/analysis over the module — the multichecker of the merge
// gate (`make lint`, folded into `make check`).
//
// Usage:
//
//	prvm-lint [-list] [-run regexp] [-summary file] [packages]
//
// With no package arguments it checks ./... . -summary appends a
// markdown report (fed to $GITHUB_STEP_SUMMARY in CI). Nothing is
// tolerated in bulk: the only way past a finding is a
// //prvmlint:allow directive with a reason on the flagged line. Exit
// status is 1 when any finding remains, 2 on loader errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"

	"pagerankvm/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	run := flag.String("run", "", "only run analyzers whose name matches this regexp")
	summary := flag.String("summary", "", "append a markdown summary of the run to this file")
	flag.Parse()

	if *list {
		for _, a := range analysis.All {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := analysis.All
	if *run != "" {
		re, err := regexp.Compile(*run)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prvm-lint: bad -run regexp: %v\n", err)
			os.Exit(2)
		}
		var selected []*analysis.Analyzer
		for _, a := range analyzers {
			if re.MatchString(a.Name) {
				selected = append(selected, a)
			}
		}
		if len(selected) == 0 {
			fmt.Fprintf(os.Stderr, "prvm-lint: -run %q matches no analyzer\n", *run)
			os.Exit(2)
		}
		analyzers = selected
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "prvm-lint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := analysis.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "prvm-lint: %v\n", err)
		os.Exit(2)
	}
	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "prvm-lint: %v\n", err)
		os.Exit(2)
	}

	for _, d := range diags {
		fmt.Println(d)
	}

	if *summary != "" {
		if err := appendSummary(*summary, analyzers, diags); err != nil {
			fmt.Fprintf(os.Stderr, "prvm-lint: %v\n", err)
			os.Exit(2)
		}
	}

	if len(diags) > 0 {
		os.Exit(1)
	}
}

// appendSummary writes a markdown report of the run — appended, so CI
// can point it straight at $GITHUB_STEP_SUMMARY.
func appendSummary(path string, analyzers []*analysis.Analyzer, diags []analysis.Diagnostic) error {
	var b strings.Builder
	fmt.Fprintf(&b, "### prvm-lint: %d analyzer(s)\n\n", len(analyzers))
	if len(diags) == 0 {
		fmt.Fprintf(&b, "No findings. ✅\n")
	} else {
		counts := make(map[string]int)
		for _, d := range diags {
			counts[d.Analyzer]++
		}
		fmt.Fprintf(&b, "| analyzer | findings |\n|---|---|\n")
		for _, a := range analyzers {
			if counts[a.Name] > 0 {
				fmt.Fprintf(&b, "| %s | %d |\n", a.Name, counts[a.Name])
			}
		}
		fmt.Fprintf(&b, "\n```\n")
		for _, d := range diags {
			fmt.Fprintf(&b, "%s\n", d)
		}
		fmt.Fprintf(&b, "```\n")
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(b.String()); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
