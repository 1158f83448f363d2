// Package trace generates synthetic per-VM CPU-utilization time
// series standing in for the two traces the paper uses:
//
//   - the PlanetLab trace shipped with CloudSim (5-minute CPU samples
//     over 24 hours per node): moderate mean, strong diurnal pattern,
//     AR(1)-correlated noise;
//   - the Google cluster usage trace (May 2011, ~11k machines):
//     lower mean, heavy-tailed bursts, weak diurnal structure.
//
// Neither original trace is redistributable or reachable offline; the
// simulator only consumes a utilization multiplier in [0, 1] per VM
// per interval, so a seeded generator with matching shape preserves
// the evaluated behaviour (see DESIGN.md §5). Generators are
// deterministic given (seed, vm id).
package trace

import (
	"errors"
	"math"
	"sync/atomic"

	"pagerankvm/internal/opt"
)

// Series is one VM's utilization multipliers, one sample per interval,
// each in [0, 1]: the fraction of the VM's requested CPU it actually
// uses during the interval.
type Series []float64

// At returns the sample at step i, clamping past the end (a VM that
// outlives its trace keeps its final utilization).
func (s Series) At(i int) float64 {
	if len(s) == 0 {
		return 0
	}
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// Mean returns the average utilization of the series.
func (s Series) Mean() float64 {
	if len(s) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range s {
		total += x
	}
	return total / float64(len(s))
}

// Max returns the peak utilization of the series.
func (s Series) Max() float64 {
	peak := 0.0
	for _, x := range s {
		if x > peak {
			peak = x
		}
	}
	return peak
}

// Generator produces utilization series for VM ids.
type Generator interface {
	Name() string
	// Series returns the utilization series for one VM over the given
	// number of steps. It must be deterministic in (generator seed,
	// vmID), safe for concurrent use, and return a slice the caller
	// owns: OverlaidSeries adds the tenant bursts into it in place.
	Series(vmID, steps int) Series
}

// clamp01 bounds x into [0, 1].
func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// PlanetLab mimics the CloudSim PlanetLab workload: a diurnal base
// level plus AR(1) noise and occasional decaying spikes. The diurnal
// phase is shared across VMs (with per-VM jitter): PlanetLab nodes see
// correlated daily peaks, which is what drives simultaneous host
// overloads in the paper's experiments.
type PlanetLab struct {
	// Seed drives all randomness; two generators with equal seeds
	// produce identical workloads.
	Seed int64
	// Mean is the base utilization level each VM's own level is drawn
	// around, before the diurnal swing, the noise, the spikes and the
	// clamp to [0, 1] (which lift the long-run average above it); nil
	// selects 0.35 (set with opt.F).
	Mean *float64
	// Diurnal is the amplitude of the day/night swing; nil selects
	// 0.20.
	Diurnal *float64
	// StepsPerDay is the number of samples in one diurnal period;
	// default 288 (5-minute samples over 24 h).
	StepsPerDay int
}

var _ Generator = PlanetLab{}

// Name implements Generator.
func (PlanetLab) Name() string { return "planetlab" }

// Series implements Generator.
func (g PlanetLab) Series(vmID, steps int) Series {
	mean := opt.Or(g.Mean, 0.35)
	diurnal := opt.Or(g.Diurnal, 0.20)
	perDay := g.StepsPerDay
	if perDay == 0 {
		perDay = 288
	}
	// The daily peak hour is common to the whole workload (seed-
	// derived), individual VMs jitter around it.
	globalPhase := planetLabPhase(g.Seed)
	rng := seeded(g.Seed*1000003 + int64(vmID))
	defer randPool.Put(rng)

	var (
		phase   = globalPhase + 0.4*rng.NormFloat64()
		level   = mean * (0.6 + 0.8*rng.Float64()) // VM-specific mean
		sigma   = 0.05 + 0.10*rng.Float64()
		rho     = 0.85 // AR(1) autocorrelation across 5-min samples
		noise   = 0.0
		burst   = 0.0
		samples = make(Series, steps)
	)
	for i := range samples {
		day := 2 * math.Pi * float64(i) / float64(perDay)
		base := level + diurnal*math.Sin(day+phase)
		noise = rho*noise + math.Sqrt(1-rho*rho)*rng.NormFloat64()*sigma
		// Occasional load spikes toward saturation, decaying over a
		// few intervals.
		if rng.Float64() < 0.02 {
			burst = 0.4 + 0.6*rng.Float64()
		}
		samples[i] = clamp01(base + noise + burst)
		burst *= 0.5
	}
	return samples
}

// seededPhase is the PlanetLab daily phase of one seed.
type seededPhase struct {
	seed  int64
	phase float64
}

// lastPhase caches the last seed's phase: a workload's VMs share one
// seed, and seeding a source per VM only to draw it cost as much as
// each series' own source.
var lastPhase atomic.Pointer[seededPhase]

// planetLabPhase returns the seed-wide daily phase. Concurrent
// generators with different seeds only replace each other's entry.
func planetLabPhase(seed int64) float64 {
	if p := lastPhase.Load(); p != nil && p.seed == seed {
		return p.phase
	}
	rng := seeded(seed)
	p := &seededPhase{seed, rng.Float64() * 2 * math.Pi}
	randPool.Put(rng)
	lastPhase.Store(p)
	return p.phase
}

// Google mimics the Google cluster usage trace: lower average
// utilization than PlanetLab, heavy-tailed bursts, little diurnal
// structure.
type Google struct {
	// Seed drives all randomness.
	Seed int64
	// Mean is the base utilization level each VM's own level is drawn
	// around, before the bursts and the clamp to [0, 1] (which lift the
	// long-run average above it); nil selects 0.30 (set with opt.F).
	Mean *float64
}

var _ Generator = Google{}

// Name implements Generator.
func (Google) Name() string { return "google" }

// Series implements Generator.
func (g Google) Series(vmID, steps int) Series {
	mean := opt.Or(g.Mean, 0.30)
	rng := seeded(g.Seed*998244353 + int64(vmID))
	defer randPool.Put(rng)

	var (
		level   = mean * (0.4 + 1.2*rng.Float64())
		rho     = 0.7
		noise   = 0.0
		burst   = 0.0 // current burst height, decays geometrically
		samples = make(Series, steps)
	)
	for i := range samples {
		noise = rho*noise + math.Sqrt(1-rho*rho)*rng.NormFloat64()*0.08
		// Heavy-tailed bursts: start with small probability, then
		// decay over several intervals (tasks ramping up and down).
		if rng.Float64() < 0.03 {
			burst = 0.4 + 0.6*math.Pow(rng.Float64(), 0.5)
		}
		samples[i] = clamp01(level + noise + burst)
		burst *= 0.6
	}
	return samples
}

// Constant yields a fixed utilization for every VM and step — useful
// for tests and capacity planning.
type Constant struct {
	// Level is the fixed utilization in [0, 1].
	Level float64
}

var _ Generator = Constant{}

// Name implements Generator.
func (Constant) Name() string { return "constant" }

// Series implements Generator.
func (g Constant) Series(_, steps int) Series {
	s := make(Series, steps)
	for i := range s {
		s[i] = clamp01(g.Level)
	}
	return s
}

// Overlay adds two series sample-wise with clamping to [0, 1],
// truncated to the shorter input. Workload builders overlay a shared
// tenant burst series on each VM's base series: when a tenant's
// workload surges, all of its VMs surge together.
func Overlay(a, b Series) Series {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	out := make(Series, n)
	for i := 0; i < n; i++ {
		out[i] = clamp01(a[i] + b[i])
	}
	return out
}

// BurstConfig parameterizes a Bursts series.
type BurstConfig struct {
	// Prob is the per-step probability that a burst starts; nil
	// selects 0.02 (set with opt.F).
	Prob *float64
	// Max bounds a burst's initial height; nil selects 0.9 and also
	// defaults Min to 0.5.
	Max *float64
	// Min is the lower bound of a burst's initial height; only read
	// when Max is set.
	Min float64
	// Decay is the per-step geometric decay of a burst; nil selects
	// 0.6.
	Decay *float64
}

// resolvedBursts carries the effective burst parameters.
type resolvedBursts struct {
	prob, min, max, decay float64
}

func (c BurstConfig) withDefaults() resolvedBursts {
	r := resolvedBursts{
		prob:  opt.Or(c.Prob, 0.02),
		min:   c.Min,
		decay: opt.Or(c.Decay, 0.6),
	}
	if c.Max == nil {
		r.min, r.max = 0.5, 0.9
	} else {
		r.max = *c.Max
	}
	return r
}

// Bursts generates a burst-only series (zero baseline): occasional
// surges that decay geometrically. Deterministic in (seed, id).
func Bursts(seed int64, id, steps int, cfg BurstConfig) Series {
	out := make(Series, steps)
	fillBursts(out, seed, id, cfg.withDefaults())
	return out
}

// fillBursts writes the Bursts series of (seed, id) into out.
func fillBursts(out Series, seed int64, id int, r resolvedBursts) {
	rng := seeded(seed*69061 + int64(id))
	defer randPool.Put(rng)
	burst := 0.0
	for i := range out {
		if rng.Float64() < r.prob {
			burst = r.min + (r.max-r.min)*rng.Float64()
		}
		out[i] = clamp01(burst)
		burst *= r.decay
	}
}

// OverlaidSeries returns, for every VM id in [0, len(burstIDs)),
// Overlay(gen.Series(id, steps), Bursts(seed, burstIDs[id], steps,
// cfg)) bit for bit, summed in place in the series gen returns. A
// burst series is drawn once per run of equal consecutive ids, so a
// tenant's VMs should be numbered consecutively. Serial on purpose
// (DESIGN.md §5).
func OverlaidSeries(gen Generator, steps int, seed int64, cfg BurstConfig, burstIDs []int) []Series {
	out := make([]Series, len(burstIDs))
	r := cfg.withDefaults()
	shared := make(Series, steps)
	for id, b := range burstIDs {
		if id == 0 || b != burstIDs[id-1] {
			fillBursts(shared, seed, b, r)
		}
		own := gen.Series(id, steps)
		own = own[:min(len(own), len(shared))]
		for i, x := range own {
			own[i] = clamp01(x + shared[i])
		}
		out[id] = own
	}
	return out
}

// ErrUnknownGenerator is returned by ByName for unrecognized names.
var ErrUnknownGenerator = errors.New("trace: unknown generator")

// ByName builds a generator from its name ("planetlab", "google",
// "constant"), used by the CLI tools.
func ByName(name string, seed int64) (Generator, error) {
	switch name {
	case "planetlab":
		return PlanetLab{Seed: seed}, nil
	case "google":
		return Google{Seed: seed}, nil
	case "constant":
		return Constant{Level: 0.5}, nil
	default:
		return nil, ErrUnknownGenerator
	}
}
