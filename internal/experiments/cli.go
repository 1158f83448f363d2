package experiments

import (
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"pagerankvm/internal/obs"
	"pagerankvm/internal/ranktable"
)

// WriteEvaluation writes every table and figure of the paper's
// evaluation to w — prvm-exp's report: Tables I–III, Figures 1 and 2,
// then the figures of the PlanetLab, Google and testbed sweeps, each
// followed by a blank line. The header reports sim's reps and seed.
func WriteEvaluation(w io.Writer, sim SimConfig, tb TestbedConfig) error {
	fmt.Fprintf(w, "PageRankVM evaluation harness — reps=%d, vms=%v, jobs=%v, seed=%d\n\n",
		sim.Reps, sim.NumVMs, tb.NumJobs, sim.Seed)
	rank := ranktable.Options{Obs: sim.Obs}
	for _, write := range []func() error{
		func() error { return WriteTable1(w) },
		func() error { return WriteTable2(w) },
		func() error { return WriteTable3(w) },
		func() error { return WriteFigure1(w, rank) },
		func() error { return WriteFigure2(w, rank) },
	} {
		if err := write(); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if _, err := RunFigures(w, Figures, sim, tb); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// SelectFigures parses a comma-separated list of figure IDs — the -fig
// flag of prvm-exp — into those figures, in the order given; "all"
// selects every figure, in report order. An unknown ID is an error.
func SelectFigures(ids string) ([]Figure, error) {
	if ids == "all" {
		return Figures, nil
	}
	var out []Figure
	for _, id := range strings.Split(ids, ",") {
		i := slices.IndexFunc(Figures, func(f Figure) bool { return f.ID == strings.TrimSpace(id) })
		if i < 0 {
			return nil, fmt.Errorf("unknown figure %q", id)
		}
		out = append(out, Figures[i])
	}
	return out, nil
}

// RunFigures writes the figures' tables to w, a blank line apart. It
// runs each sweep they need once, when the first figure needs it —
// RunSimSweep of sim at the figure's trace, or RunTestbedSweep of tb —
// and returns the sweeps in that order.
func RunFigures(w io.Writer, figs []Figure, sim SimConfig, tb TestbedConfig) ([]*Sweep, error) {
	var sweeps []*Sweep
	byTrace := map[string]*Sweep{}
	for i, f := range figs {
		s := byTrace[f.Trace]
		if s == nil {
			var err error
			if s, err = runSweep(f.Trace, sim, tb); err != nil {
				return nil, err
			}
			byTrace[f.Trace] = s
			sweeps = append(sweeps, s)
		}
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := s.WriteFigure(w, f.Metric, f.Title); err != nil {
			return nil, err
		}
	}
	return sweeps, nil
}

// runSweep runs the sweep behind one trace (or Testbed), announcing it
// on stderr.
func runSweep(trace string, sim SimConfig, tb TestbedConfig) (*Sweep, error) {
	if trace == Testbed {
		tb = tb.withDefaults()
		fmt.Fprintf(os.Stderr, "running testbed sweep: jobs=%v reps=%d steps=%d pms=%d...\n",
			tb.NumJobs, tb.Reps, tb.Steps, tb.NumPMs)
		return RunTestbedSweep(tb)
	}
	sim.Trace = trace
	sim = sim.withDefaults()
	fmt.Fprintf(os.Stderr, "running %s sweep: vms=%v reps=%d...\n", trace, sim.NumVMs, sim.Reps)
	return RunSimSweep(sim)
}

// ParseCounts parses a comma-separated list of positive integers — the
// -vms and -jobs flags of the sweep commands.
func ParseCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// WriteFile creates path, fills it with write and closes it, then
// reports the write on stderr — the sweep commands' -csv and -series
// outputs.
func WriteFile(path string, write func(io.Writer) error) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(out); err != nil {
		_ = out.Close()
		return err
	}
	// Write path: the close error is the last chance to hear about a
	// truncated file.
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// Telemetry is the sweep commands' -obsaddr / -metrics-out wiring. It
// returns the observer — nil, instrumentation disabled, when neither
// flag is set; served live on addr (with a ring of recent decision
// traces on /events) when that one is — and the function to call at
// exit, which writes the final snapshot to metricsOut when set.
func Telemetry(addr, metricsOut string) (*obs.Observer, func() error, error) {
	if addr == "" && metricsOut == "" {
		return nil, func() error { return nil }, nil
	}
	o := obs.New()
	if addr != "" {
		ring := obs.NewRingSink(4096)
		o.SetSink(ring)
		// The stop handle is deliberately dropped: the endpoint serves
		// for the remaining process lifetime.
		bound, _, err := obs.Serve(addr, o, ring)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "telemetry on http://%s (/metrics /events /debug/pprof/)\n", bound)
	}
	return o, func() error {
		if metricsOut == "" {
			return nil
		}
		if err := o.WriteFile(metricsOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", metricsOut)
		return nil
	}, nil
}
