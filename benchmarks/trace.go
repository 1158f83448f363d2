package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// maxKeptSpans bounds the spans written to the trace file; every span
// still feeds the per-name totals.
const maxKeptSpans = 50000

// span is one timed call: which layer call it was, when it started and
// ended (ns since the tracer was created), the span that caused it
// (-1 for a root: one request, repetition, build or round) and the
// op it belongs to (request number, repetition, round).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Op     int64  `json:"op"`
}

// spanTotals aggregates every span of one name.
type spanTotals struct {
	Count int64 `json:"count"`
	// TotalNs is the summed duration, SelfNs the part not covered by
	// child spans.
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

// tracer records spans in memory around the benchmark's own calls into
// each layer and writes them out when the run ends. A nil *tracer is
// the untraced run: every method is then a no-op. One tracer belongs
// to one goroutine; concurrent clients fork their own, and the owner
// joins them back once they have finished.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	totals   map[string]*spanTotals
	counts   map[string]int64
	n        int64

	// open is the stack of begun roots: index into spans (or -1 when
	// the span was not kept), start time and child time so far.
	open []openSpan
}

type openSpan struct {
	name    string
	start   time.Time
	op      int64
	childNs int64
	kept    int32 // id when kept, -1 otherwise
}

func newTracer(workload string) *tracer {
	return &tracer{
		workload: workload,
		epoch:    time.Now(),
		totals:   map[string]*spanTotals{},
		counts:   map[string]int64{},
	}
}

// fork returns a tracer for another goroutine sharing this one's clock.
func (t *tracer) fork() *tracer {
	if t == nil {
		return nil
	}
	return &tracer{workload: t.workload, epoch: t.epoch, totals: map[string]*spanTotals{}, counts: map[string]int64{}}
}

// join folds a fork's spans, totals and counts back in.
func (t *tracer) join(f *tracer) {
	if t == nil || f == nil {
		return
	}
	off := int32(len(t.spans))
	for _, s := range f.spans {
		if len(t.spans) >= maxKeptSpans {
			break
		}
		s.ID += off
		if s.Parent >= 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
	names := make([]string, 0, len(f.totals))
	for name := range f.totals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ft := f.totals[name]
		tt := t.total(name)
		tt.Count += ft.Count
		tt.TotalNs += ft.TotalNs
		tt.SelfNs += ft.SelfNs
	}
	for name, c := range f.counts {
		t.counts[name] += c
	}
	t.n += f.n
}

func (t *tracer) total(name string) *spanTotals {
	tt := t.totals[name]
	if tt == nil {
		tt = &spanTotals{}
		t.totals[name] = tt
	}
	return tt
}

// keep appends a span when there is room and returns its id, else -1.
func (t *tracer) keep(name string, parent int32, start, end time.Time, op int64) int32 {
	t.n++
	if len(t.spans) >= maxKeptSpans {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Op: op,
	})
	return id
}

// begin opens a span that later record and begin calls nest under.
func (t *tracer) begin(name string, op int64) {
	if t == nil {
		return
	}
	now := time.Now()
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1].kept
	}
	id := t.keep(name, parent, now, now, op)
	t.open = append(t.open, openSpan{name: name, start: now, op: op, kept: id})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil || len(t.open) == 0 {
		return
	}
	now := time.Now()
	o := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	d := int64(now.Sub(o.start))
	if o.kept >= 0 {
		t.spans[o.kept].End = int64(now.Sub(t.epoch))
	}
	tt := t.total(o.name)
	tt.Count++
	tt.TotalNs += d
	tt.SelfNs += d - o.childNs
	if n := len(t.open); n > 0 {
		t.open[n-1].childNs += d
	}
}

// record adds a finished leaf span under the innermost open span.
func (t *tracer) record(name string, start, end time.Time, op int64) {
	if t == nil {
		return
	}
	parent := int32(-1)
	d := int64(end.Sub(start))
	if n := len(t.open); n > 0 {
		parent = t.open[n-1].kept
		t.open[n-1].childNs += d
	}
	t.keep(name, parent, start, end, op)
	tt := t.total(name)
	tt.Count++
	tt.TotalNs += d
	tt.SelfNs += d
}

// count adds n to a named count taken at a layer boundary.
func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.counts[name] += n
}

// spanCount returns how many spans were recorded (kept or not).
func (t *tracer) spanCount() int64 {
	if t == nil {
		return 0
	}
	return t.n
}

// traceFile is the on-disk form of a trace.
type traceFile struct {
	Workload string                 `json:"workload"`
	Spans    []span                 `json:"spans"`
	Dropped  int64                  `json:"spans_not_kept"`
	Totals   map[string]*spanTotals `json:"totals"`
	Counts   map[string]int64       `json:"counts"`
	Stages   []stageRow             `json:"stages,omitempty"`
}

// writeFile writes the trace as JSON.
func (t *tracer) writeFile(path string, stages []stageRow) error {
	b, err := json.Marshal(traceFile{
		Workload: t.workload,
		Spans:    t.spans,
		Dropped:  t.n - int64(len(t.spans)),
		Totals:   t.totals,
		Counts:   t.counts,
		Stages:   stages,
	})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// stageRow is one row of a workload's stage table: where the time of
// its unit of work goes, each stage's share of the whole, with what
// could not be attributed listed as its own row.
type stageRow struct {
	Stage string  `json:"stage"`
	US    float64 `json:"us"`
	Share float64 `json:"share"`
}

// stageTable turns named stage durations (µs) into rows with shares of
// whole; the remainder becomes the "unattributed" row, so the rows sum
// to whole by construction and the remainder is reported, not hidden.
func stageTable(whole float64, names []string, us map[string]float64) []stageRow {
	rows := make([]stageRow, 0, len(names)+2)
	rest := whole
	for _, n := range names {
		rows = append(rows, stageRow{Stage: n, US: us[n]})
		rest -= us[n]
	}
	rows = append(rows, stageRow{Stage: "unattributed", US: rest}, stageRow{Stage: "total", US: whole})
	for i := range rows {
		if whole > 0 {
			rows[i].Share = rows[i].US / whole
		}
	}
	return rows
}

func printStages(w io.Writer, rows []stageRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "  %-26s %12s %8s\n", "stage", "us", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-26s %12.2f %7.1f%%\n", r.Stage, r.US, 100*r.Share)
	}
}
