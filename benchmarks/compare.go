package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
)

// verdict is the outcome of comparing one (metric, workload) pair.
type verdict int

const (
	within verdict = iota // no worse than the bound allows
	better                // improved by more than the bound
	worse                 // worsened by more than the bound: a regression
)

func (v verdict) String() string {
	switch v {
	case better:
		return "better"
	case worse:
		return "WORSE"
	default:
		return "within"
	}
}

// judge applies a metric's regression bound: how much worse b is than
// a as a share of a, in the metric's own direction (positive = worse),
// and what that means against the bound.
func judge(def metricDef, a, b float64) (float64, verdict) {
	if a <= 0 { // no base to take a share of
		if b <= 0 {
			return 0, within
		}
		return 0, worse
	}
	change := (b - a) / a
	if def.better == "higher" {
		change = -change
	}
	switch {
	case change > def.bound:
		return change, worse
	case change < -def.bound:
		return change, better
	}
	return change, within
}

// sameConditions refuses to diff results that were not recorded under the
// same conditions — the mistake of comparing BENCH_pr8.json (GOMAXPROCS
// 4) with BENCH_pr10.json (GOMAXPROCS 1).
func sameConditions(a, b header) error {
	switch {
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Errorf("GOMAXPROCS differ: %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.Seed != b.Seed:
		return fmt.Errorf("seeds differ: %d vs %d", a.Seed, b.Seed)
	case a.Seconds != b.Seconds: //prvmlint:allow floateq a copied flag value, not a computed one
		return fmt.Errorf("measured seconds differ: %v vs %v", a.Seconds, b.Seconds)
	case a.Smoke != b.Smoke:
		return fmt.Errorf("one file is a -smoke run")
	case a.Traced || b.Traced:
		return fmt.Errorf("traced runs carry no end-to-end metrics to compare")
	}
	for name, sa := range a.Sizes {
		if sb, ok := b.Sizes[name]; ok && !reflect.DeepEqual(sa, sb) {
			return fmt.Errorf("%s sizes differ: %v vs %v", name, sa, sb)
		}
	}
	return nil
}

func readDocument(path string) (*document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// errRegression is returned by -compare when some pair is worse than
// its bound allows.
var errRegression = fmt.Errorf("at least one metric is worse than its bound allows")

// compareFiles prints, for every workload both files hold, each
// end-to-end metric of A and B, the change and the verdict under the
// metric's bound.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readDocument(pathA)
	if err != nil {
		return err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return err
	}
	if err := sameConditions(a.Header, b.Header); err != nil {
		return fmt.Errorf("refusing to compare %s with %s: %w", pathA, pathB, err)
	}
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		if _, ok := b.Workloads[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("%s and %s share no workload", pathA, pathB)
	}
	regressed := false
	fmt.Fprintf(w, "A = %s (%s)\nB = %s (%s)\n", pathA, a.Header.Commit, pathB, b.Header.Commit)
	fmt.Fprintf(w, "%-12s %-16s %14s %14s %8s %6s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if !wa.Correct || !wb.Correct {
			return fmt.Errorf("%s: a run with a failed output check cannot be compared", name)
		}
		for _, def := range endToEnd {
			va, vb := wa.EndToEnd[def.name].Value, wb.EndToEnd[def.name].Value
			change, v := judge(def, va, vb)
			if v == worse {
				regressed = true
			}
			fmt.Fprintf(w, "%-12s %-16s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n",
				name, def.name, va, vb, 100*change, 100*def.bound, v)
		}
		fa, fb := failedRatio(wa), failedRatio(wb)
		fv := within
		if fb > fa+0.001 {
			fv, regressed = worse, true
		}
		fmt.Fprintf(w, "%-12s %-16s %14.6f %14.6f %8s %6s  %s\n", name, "failed/attempted", fa, fb, "", "+.001", fv)
	}
	if regressed {
		return errRegression
	}
	return nil
}

func failedRatio(w workloadResult) float64 {
	if w.Attempted == 0 {
		return 0
	}
	return float64(w.Failed) / float64(w.Attempted)
}
