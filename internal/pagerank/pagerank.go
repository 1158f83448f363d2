// Package pagerank implements Algorithm 1 of the paper: the PageRank
// iteration over a profile graph (damping, auxiliary accumulation,
// per-iteration normalization, convergence threshold) followed by the
// BPRU (Best Possible Resource Utilization) discount that multiplies
// each profile's rank by the maximum utilization among the terminal
// profiles reachable from it.
//
// Every entry point operates on a CSR graph (see CSR); NewCSR flattens
// per-node successor slices into one.
package pagerank

import (
	"errors"
	"fmt"
	"math"
	"time"

	"pagerankvm/internal/obs"
	"pagerankvm/internal/opt"
)

// Defaults for Options, matching the paper (d = 0.85 "as generally
// assumed").
const (
	DefaultDamping = 0.85
	DefaultEpsilon = 1e-10
	DefaultMaxIter = 10000
)

// Options configures the PageRank iteration. The zero value selects the
// defaults above.
type Options struct {
	// Damping is the damping factor d in Equ. (12); nil selects
	// DefaultDamping (set with opt.F, e.g. opt.F(0.9) — an explicit
	// opt.F(0) runs undamped).
	Damping *float64
	// Epsilon is the convergence threshold: iteration stops once every
	// node's score changes by less than Epsilon between iterations.
	// Nil selects DefaultEpsilon.
	Epsilon *float64
	// MaxIter bounds the iteration count as a safety net.
	MaxIter int
	// Obs, when non-nil, records iteration counts, per-iteration
	// residuals and convergence outcomes (pagerank.* metrics).
	Obs *obs.Observer
}

// resolved carries the effective iteration parameters after defaulting.
type resolved struct {
	damping float64
	epsilon float64
	maxIter int
	obs     *obs.Observer
}

func (o Options) withDefaults() resolved {
	r := resolved{
		damping: opt.Or(o.Damping, DefaultDamping),
		epsilon: opt.Or(o.Epsilon, DefaultEpsilon),
		maxIter: o.MaxIter,
		obs:     o.Obs,
	}
	if r.maxIter == 0 {
		r.maxIter = DefaultMaxIter
	}
	return r
}

// Result carries the converged scores and iteration diagnostics.
type Result struct {
	// Ranks holds the normalized PageRank score of every node.
	Ranks []float64
	// Iterations is the number of iterations run until convergence.
	Iterations int
	// Converged reports whether Epsilon was reached within MaxIter.
	Converged bool
	// Residuals holds the max per-node score change of every
	// iteration, in order — Residuals[Iterations-1] is the residual
	// that ended the run (below Epsilon when Converged).
	Residuals []float64
}

// initialResidualCap seeds the Residuals slice: well-conditioned runs
// converge within a few dozen iterations, so the slice grows from a
// small capacity instead of pre-reserving MaxIter entries.
const initialResidualCap = 16

// RanksCSR runs the paper's Algorithm 1 lines 2-18 on a CSR graph. It
// returns an error for an empty graph or invalid options. The
// distribute loop streams two flat arenas and the auxiliary
// accumulator comes from a scratch pool, so steady-state runs allocate
// only the returned rank vector (plus residual diagnostics).
//
//prvm:hotpath
func RanksCSR(g CSR, opts Options) (Result, error) {
	o := opts.withDefaults()
	n := g.Len()
	if n == 0 {
		return Result{}, errors.New("pagerank: empty graph")
	}
	if o.damping < 0 || o.damping >= 1 {
		return Result{}, errors.New("pagerank: damping must be in [0,1)")
	}
	if o.epsilon <= 0 {
		return Result{}, errors.New("pagerank: epsilon must be positive")
	}

	//prvmlint:allow hotalloc — the returned rank vector; the one allocation the doc promises
	pr := make([]float64, n)
	aux := grabF64(n)
	defer releaseF64(aux)
	// Out-degree reciprocals, hoisted out of the iteration loop: the
	// distribute loop then runs one multiply per node instead of one
	// divide, and divides are the long pole of the kernel (an fdiv
	// stalls ~20+ cycles where fmul pipelines at ~4).
	invdeg := grabF64(n)
	defer releaseF64(invdeg)
	for i := 0; i < n; i++ {
		if d := g.Offsets[i+1] - g.Offsets[i]; d > 0 {
			invdeg[i] = 1 / float64(d)
		}
	}
	for i := range pr {
		pr[i] = 1 / float64(n)
	}
	offsets, edges := g.Offsets, g.Edges

	//prvmlint:allow hotalloc — residual diagnostics travel with the result
	res := Result{Residuals: make([]float64, 0, initialResidualCap)}
	for iter := 1; iter <= o.maxIter; iter++ {
		// Lines 7-12: distribute each node's rank to its successors.
		for i := 0; i < n; i++ {
			lo, hi := offsets[i], offsets[i+1]
			if lo == hi {
				continue
			}
			share := pr[i] * invdeg[i]
			for _, j := range edges[lo:hi] {
				aux[j] += share
			}
		}
		// Lines 13-16: damped update, with the normalization sum fused
		// into the same pass.
		base := (1 - o.damping) / float64(n)
		sum := 0.0
		maxDelta := 0.0
		for i := range pr {
			next := base + o.damping*aux[i]
			sum += next
			pr[i], aux[i] = next, pr[i] // aux now holds the previous score
		}
		// Line 17: normalize (one divide, n multiplies), then measure
		// convergence against the previous normalized scores stashed in
		// aux.
		invSum := 1 / sum
		for i := range pr {
			pr[i] *= invSum
			if d := math.Abs(pr[i] - aux[i]); d > maxDelta {
				maxDelta = d
			}
			aux[i] = 0
		}
		res.Iterations = iter
		//prvmlint:allow hotalloc — one float per iteration, capacity preallocated above
		res.Residuals = append(res.Residuals, maxDelta)
		if maxDelta < o.epsilon {
			res.Converged = true
			break
		}
	}
	res.Ranks = pr
	if o.obs != nil {
		o.obs.Counter("pagerank.runs").Inc()
		if res.Converged {
			o.obs.Counter("pagerank.converged_runs").Inc()
		}
		o.obs.Histogram("pagerank.iterations", obs.ExpBuckets(1, 2, 16)).
			Observe(float64(res.Iterations))
		if len(res.Residuals) > 0 {
			o.obs.Histogram("pagerank.final_residual", obs.ExpBuckets(1e-14, 10, 15)).
				Observe(res.Residuals[len(res.Residuals)-1])
		}
	}
	return res, nil
}

// errEdgeOrder rejects a graph the single sweeps below cannot
// evaluate: they require every edge to point to a higher node id,
// which also rules out cycles.
func errEdgeOrder(from int, to int32) error {
	return fmt.Errorf("pagerank: edge %d -> %d does not point to a higher node id (cycle or unordered graph)", from, to)
}

// BPRUCSR computes, for every node, the maximum utilization among the
// terminal nodes (no out-edges) reachable from it; a terminal node's
// BPRU is its own utilization (Algorithm 1 line 19's discount factor).
//
// Every edge must point to a higher node id: profile graphs are built
// that way (lattice ids are lexicographic ranks and a successor is
// element-wise at least its parent), so one sweep from the last node
// down finds every successor already folded. An edge to an id at or
// below its source — a cycle included — is an error.
func BPRUCSR(g CSR, utils []float64) ([]float64, error) {
	n := g.Len()
	if len(utils) != n {
		return nil, errors.New("pagerank: utils length mismatch")
	}
	bpru := make([]float64, n)
	offsets, edges := g.Offsets, g.Edges
	for i := n - 1; i >= 0; i-- {
		lo, hi := offsets[i], offsets[i+1]
		if lo == hi {
			bpru[i] = utils[i]
			continue
		}
		best := math.Inf(-1)
		for _, c := range edges[lo:hi] {
			if int(c) <= i {
				return nil, errEdgeOrder(i, c)
			}
			if bpru[c] > best {
				best = bpru[c]
			}
		}
		bpru[i] = best
	}
	return bpru, nil
}

// AbsorptionValuesCSR computes the damped absorption value of every
// node of a DAG: terminals are worth reward(t) = utils[t]^rewardExp,
// and an inner node is worth damping times the mean value of its
// successors.
//
// This is the "probability that this profile can reach the best
// profile" reading of the paper's rank (Section V-B's closing
// sentence): a random walk that accommodates one uniformly-chosen
// feasible VM per step, pays a damping factor per step, and is
// rewarded by how close to full utilization it ends. The reward
// exponent sharpens the penalty for stranding capacity (a terminal at
// 93% utilization with rewardExp=8 is worth 0.6, not 0.93).
//
// Like BPRUCSR it is one sweep from the last node down, summing each
// node's successors in edge order, and requires every edge to point to
// a higher node id.
func AbsorptionValuesCSR(g CSR, utils []float64, damping, rewardExp float64) ([]float64, error) {
	n := g.Len()
	if len(utils) != n {
		return nil, errors.New("pagerank: utils length mismatch")
	}
	if damping <= 0 || damping > 1 {
		return nil, errors.New("pagerank: damping must be in (0,1]")
	}
	if rewardExp <= 0 {
		return nil, errors.New("pagerank: reward exponent must be positive")
	}
	value := make([]float64, n)
	offsets, edges := g.Offsets, g.Edges
	for i := n - 1; i >= 0; i-- {
		lo, hi := offsets[i], offsets[i+1]
		if lo == hi {
			value[i] = math.Pow(utils[i], rewardExp)
			continue
		}
		sum := 0.0
		for _, c := range edges[lo:hi] {
			if int(c) <= i {
				return nil, errEdgeOrder(i, c)
			}
			sum += value[c]
		}
		value[i] = damping * sum / float64(hi-lo)
	}
	return value, nil
}

// ScoresCSR runs RanksCSR on votes, then applies the BPRU discount of
// the forward profile graph g (Algorithm 1 line 19), returning the
// final per-node scores. votes is g itself for the literal Equ. (12)
// and g.Reverse() when votes flow from a profile to its predecessors.
func ScoresCSR(votes, g CSR, utils []float64, opts Options) ([]float64, Result, error) {
	res, err := RanksCSR(votes, opts)
	if err != nil {
		return nil, Result{}, err
	}
	start := time.Now()
	bpru, err := BPRUCSR(g, utils)
	if err != nil {
		return nil, Result{}, err
	}
	if opts.Obs != nil {
		opts.Obs.Histogram("pagerank.bpru_seconds", nil).Observe(time.Since(start).Seconds())
	}
	scores := make([]float64, len(res.Ranks))
	for i, r := range res.Ranks {
		scores[i] = r * bpru[i]
	}
	return scores, res, nil
}
