package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"

	"pagerankvm/internal/metrics"
	"pagerankvm/internal/placement"
	"pagerankvm/internal/ranktable"
)

// Algorithms evaluated in the paper, in its presentation order.
var AlgorithmNames = []string{"PageRankVM", "FF", "FFDSum", "CompVM"}

// Metric identifies one of the four reported metrics.
type Metric int

const (
	MetricPMs Metric = iota
	MetricEnergy
	MetricMigrations
	MetricSLO
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case MetricPMs:
		return "PMs used"
	case MetricEnergy:
		return "energy (kWh)"
	case MetricMigrations:
		return "VM migrations"
	default:
		return "SLO violations (%)"
	}
}

// Testbed is the Figure.Trace of the figures measured on the GENI
// testbed emulation rather than in trace-driven simulation.
const Testbed = "testbed"

// Figure is one of the paper's evaluation figures: one metric of one
// sweep.
type Figure struct {
	// ID is the figure's command-line name, e.g. "3a".
	ID    string
	Title string
	// Trace is the simulation trace the figure's sweep runs, or Testbed.
	Trace  string
	Metric Metric
}

// Figures are the paper's evaluation figures in report order: the
// simulation's Figures 3, 5, 6 and 7 on PlanetLab, then on Google, then
// the testbed's Figures 4 and 8.
var Figures = []Figure{
	{"3a", "Figure 3(a): PMs used", "planetlab", MetricPMs},
	{"5a", "Figure 5(a): energy", "planetlab", MetricEnergy},
	{"6a", "Figure 6(a): migrations", "planetlab", MetricMigrations},
	{"7a", "Figure 7(a): SLO violations", "planetlab", MetricSLO},
	{"3b", "Figure 3(b): PMs used", "google", MetricPMs},
	{"5b", "Figure 5(b): energy", "google", MetricEnergy},
	{"6b", "Figure 6(b): migrations", "google", MetricMigrations},
	{"7b", "Figure 7(b): SLO violations", "google", MetricSLO},
	{"4a", "Figure 4(a): PMs used", Testbed, MetricPMs},
	{"4b", "Figure 4(b): migrations", Testbed, MetricMigrations},
	{"8", "Figure 8: SLO violations", Testbed, MetricSLO},
}

// Sweep is the paper's evaluation grid: every algorithm at every sweep
// point, each cell summarizing the measured metrics over the
// repetitions. The simulation (Figures 3, 5, 6, 7) and the testbed
// emulation (Figures 4 and 8) both produce one.
type Sweep struct {
	// Trace is the simulation's trace; empty on the testbed.
	Trace string
	// Source names what ran, in figure titles: "planetlab trace" or
	// "GENI testbed emulation".
	Source string
	// Unit names a sweep point, in table headers: "VMs" or "jobs".
	Unit string
	// Metrics are the measured metrics, in CSV order.
	Metrics []Metric
	// Cells are point-major, in AlgorithmNames order within a point.
	Cells []Cell
}

// Cell is one (algorithm, point) cell of a sweep.
type Cell struct {
	Algorithm string
	// N is the sweep point: the VM or job count.
	N int
	// Summaries holds each measured metric's median [p1, p99] over the
	// repetitions.
	Summaries map[Metric]metrics.Summary
}

// A trial prepares one repetition of one sweep point — the workload
// every algorithm then runs over, so the four see the same input — and
// returns the function that runs one algorithm and reports the value of
// each measured metric, in Sweep.Metrics order.
type trial func(n int, seed int64) (func(alg string) ([]float64, error), error)

// run fills the grid: at every point, reps repetitions seeded seed,
// seed+1, …, each running every algorithm.
func (s *Sweep) run(points []int, reps int, seed int64, t trial) error {
	for _, n := range points {
		vals := make([][][]float64, len(AlgorithmNames)) // algorithm → metric → rep
		for i := range vals {
			vals[i] = make([][]float64, len(s.Metrics))
		}
		for rep := 0; rep < reps; rep++ {
			runAlg, err := t(n, seed+int64(rep))
			if err != nil {
				return err
			}
			for i, alg := range AlgorithmNames {
				v, err := runAlg(alg)
				if err != nil {
					return fmt.Errorf("experiments: %s %s n=%d rep=%d: %w", s.Source, alg, n, rep, err)
				}
				for j := range s.Metrics {
					vals[i][j] = append(vals[i][j], v[j])
				}
			}
		}
		for i, alg := range AlgorithmNames {
			c := Cell{Algorithm: alg, N: n, Summaries: make(map[Metric]metrics.Summary, len(s.Metrics))}
			for j, m := range s.Metrics {
				c.Summaries[m] = metrics.Summarize(vals[i][j])
			}
			s.Cells = append(s.Cells, c)
		}
	}
	return nil
}

// Cell returns the cell of one algorithm at one point.
func (s *Sweep) Cell(alg string, n int) (Cell, bool) {
	for _, c := range s.Cells {
		if c.Algorithm == alg && c.N == n {
			return c, true
		}
	}
	return Cell{}, false
}

// WriteFigure renders one figure's data (one metric of the sweep) as
// the median [p1, p99] series the paper plots; a metric the sweep does
// not measure (energy on the testbed) prints n/a.
func (s *Sweep) WriteFigure(w io.Writer, m Metric, title string) error {
	if _, err := fmt.Fprintf(w, "%s — %s, metric: %s\n", title, s.Source, m); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	var points []int
	for _, c := range s.Cells {
		if !slices.Contains(points, c.N) {
			points = append(points, c.N)
		}
	}
	slices.Sort(points)
	fmt.Fprint(tw, "algorithm")
	for _, n := range points {
		fmt.Fprintf(tw, "\t%d %s", n, s.Unit)
	}
	fmt.Fprintln(tw)
	for _, alg := range AlgorithmNames {
		fmt.Fprint(tw, alg)
		for _, n := range points {
			cell, _ := s.Cell(alg, n)
			sum, ok := cell.Summaries[m]
			if !ok {
				fmt.Fprint(tw, "\tn/a")
				continue
			}
			fmt.Fprintf(tw, "\t%.1f [%.1f, %.1f]", sum.Median, sum.P1, sum.P99)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// WriteCSV emits sweeps as one tidy table — one row per (algorithm,
// point, metric) with median and percentile columns, ready for any
// plotting tool. The header follows the first sweep: a leading trace
// column on the simulation, num_vms or num_jobs for the point; the
// sweeps must share it.
func WriteCSV(w io.Writer, sweeps ...*Sweep) error {
	if len(sweeps) == 0 {
		return nil
	}
	var header []string
	if sweeps[0].Trace != "" {
		header = append(header, "trace")
	}
	header = append(header, "algorithm", "num_"+strings.ToLower(sweeps[0].Unit), "metric", "median", "p1", "p99", "reps")
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, s := range sweeps {
		for _, c := range s.Cells {
			for _, m := range s.Metrics {
				sum := c.Summaries[m]
				var rec []string
				if s.Trace != "" {
					rec = append(rec, s.Trace)
				}
				rec = append(rec, c.Algorithm, strconv.Itoa(c.N), m.String(),
					formatFloat(sum.Median), formatFloat(sum.P1), formatFloat(sum.P99), strconv.Itoa(sum.N))
				if err := cw.Write(rec); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', 8, 64) }

// newAlgorithm instantiates the placer and eviction policy for one of
// the paper's four algorithms; opts configure the PageRankVM placer.
// Baselines use CloudSim's default minimum-migration-time eviction, as
// the paper prescribes.
func newAlgorithm(name string, reg *ranktable.Registry, opts ...placement.PageRankOption) (placement.Placer, placement.Evictor) {
	switch name {
	case "FF":
		return placement.FirstFit{}, placement.MMTEvictor{}
	case "FFDSum":
		return placement.FFDSum{}, placement.MMTEvictor{}
	case "CompVM":
		return placement.CompVM{}, placement.MMTEvictor{}
	default: // PageRankVM
		p := placement.NewPageRankVM(reg, opts...)
		return p, placement.RankEvictor{Placer: p}
	}
}
