package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeAppliesBoundInTheMetricsDirection(t *testing.T) {
	lower := metricDef{name: "lat", better: "lower", bound: 0.10}
	higher := metricDef{name: "rate", better: "higher", bound: 0.10}
	for _, c := range []struct {
		def  metricDef
		a, b float64
		want verdict
	}{
		{lower, 100, 109, within},
		{lower, 100, 111, worse},
		{lower, 100, 89, better},
		{lower, 100, 100, within},
		{higher, 100, 91, within},
		{higher, 100, 89, worse},
		{higher, 100, 111, better},
		{lower, 0, 0, within},
		{lower, 0, 1, worse},
	} {
		if _, got := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v -> %v) = %v, want %v", c.def.name, c.a, c.b, got, c.want)
		}
	}
}

// testDoc is a one-workload document whose every end-to-end metric is
// 100 except active_pms (bound 5 %).
func testDoc(activePMs float64) *document {
	d := newDocument(1, 10, false, false)
	d.Header.Sizes["serve-small"] = map[string]int64{"pms_per_type": 64}
	m := map[string]metricValue{}
	for _, def := range endToEnd {
		m[def.name] = metricValue{Value: 100, Unit: def.unit}
	}
	m["active_pms"] = metricValue{Value: activePMs, Unit: "count"}
	d.Workloads["serve-small"] = workloadResult{Correct: true, Attempted: 10, EndToEnd: m}
	return d
}

func writeDoc(t *testing.T, d *document, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := d.writeFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFlagsARegressionBeyondTheBound(t *testing.T) {
	a := writeDoc(t, testDoc(100), "a.json")
	var out bytes.Buffer
	if err := compareFiles(&out, a, writeDoc(t, testDoc(104), "b.json")); err != nil {
		t.Errorf("4%% on a 5%% bound must pass, got %v\n%s", err, out.String())
	}
	out.Reset()
	err := compareFiles(&out, a, writeDoc(t, testDoc(106), "c.json"))
	if !errors.Is(err, errRegression) || !strings.Contains(out.String(), "WORSE") {
		t.Errorf("6%% on a 5%% bound must fail, got %v\n%s", err, out.String())
	}
}

func TestCompareRefusesDifferentConditions(t *testing.T) {
	a := writeDoc(t, testDoc(100), "a.json")
	for name, edit := range map[string]func(*document){
		"GOMAXPROCS": func(d *document) { d.Header.GOMAXPROCS = 4 },
		"seed":       func(d *document) { d.Header.Seed = 2 },
		"sizes":      func(d *document) { d.Header.Sizes["serve-small"]["pms_per_type"] = 128 },
		"seconds":    func(d *document) { d.Header.Seconds = 5 },
		"smoke":      func(d *document) { d.Header.Smoke = true },
	} {
		d := testDoc(100)
		edit(d)
		err := compareFiles(os.Stderr, a, writeDoc(t, d, "b.json"))
		if err == nil || !strings.Contains(err.Error(), "refusing to compare") {
			t.Errorf("%s differs: want a refusal, got %v", name, err)
		}
	}
}
