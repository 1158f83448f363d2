// Package deschedule is the continuous rebalancer (descheduler): a
// deterministic, seeded engine that scans a placement.Cluster for
// fragmentation — underloaded PMs whose VMs all fit elsewhere, and
// VMs whose hosting profile ranks far below the best reachable
// profile — and migrates VMs toward higher-ranked profiles using the
// paper's Algorithm 2 scoring, under an explicit migration budget.
//
// The engine is admission's missing half: PageRankVM decides where a
// VM lands once, but churn drifts the cluster away from the rank
// tables' "developable profile" signal. A rebalance round runs two
// passes:
//
//  1. Drain pass (when Config.DrainBelow > 0): active PMs whose
//     requested-unit fill fraction sits below the threshold are
//     evacuated entirely — every hosted VM must find an already-active
//     destination — so the PM can power off. Only full evacuations are
//     attempted; a PM whose VM count exceeds the remaining budget
//     waits for a later round.
//  2. Rank pass: for each remaining VM (used-list order, ascending VM
//     id) the engine re-asks Algorithm 2 where the VM would land
//     today, and commits the move only when the destination is an
//     already-active PM whose accommodation score beats
//     re-accommodating on the source by the MinGainFrac margin.
//     Moves toward fresh (unused) PMs are always rejected, so a round
//     can only preserve or reduce the active PM count.
//
// Every committed move is logged as a release op followed by a place
// op in the internal/obs/record format (the serve daemon's WAL shape),
// so golden replay and WAL folds cover rebalancing with no new op
// kinds.
//
// Determinism: rounds iterate the used list in list order and hosted
// VMs in ascending id, all tie-breaking happens inside the seeded
// placer, and no wall clock or unseeded randomness feeds a decision —
// two engines over identical clusters with identically seeded placers
// plan identical moves, for any rank-table build worker count.
package deschedule

import (
	"sort"
	"time"

	"pagerankvm/internal/obs"
	"pagerankvm/internal/obs/record"
	"pagerankvm/internal/placement"
	"pagerankvm/internal/resource"
)

// Engine defaults, chosen to bound live-migration pressure: a round
// moves at most 16 VMs and never more than 4 off one source PM
// (egress bandwidth is per-host), and a rank move must improve the
// accommodation score by at least 1%.
const (
	DefaultMaxMovesPerRound = 16
	DefaultMaxMovesPerPM    = 4
	DefaultMinGainFrac      = 0.01
)

// Config parameterizes an Engine. The zero value selects the
// documented defaults with the drain pass disabled.
type Config struct {
	// MaxMovesPerRound is the round's total migration budget
	// (default 16).
	MaxMovesPerRound int
	// MaxMovesPerPM caps the moves leaving any single source PM in one
	// round — a stand-in for per-host live-migration concurrency
	// (default 4).
	MaxMovesPerPM int
	// MinGainFrac is the relative accommodation-score improvement a
	// rank move must clear: destination score > source score ×
	// (1 + MinGainFrac). Default 0.01. Drain moves are exempt —
	// freeing the PM is their gain.
	MinGainFrac float64
	// DrainBelow enables the drain pass: an active PM whose
	// requested-unit fill fraction is below this threshold is a
	// candidate for full evacuation. Zero disables the pass.
	DrainBelow float64
	// Obs receives the deschedule.* instruments; nil disables them.
	Obs *obs.Observer
	// Recorder, when non-nil, logs every committed move as a release
	// op followed by a place op (the PR 6 record format).
	Recorder *record.Recorder
	// OnMove, when non-nil, is called after each committed move — the
	// serve daemon's WAL/location-directory hook. It runs under
	// whatever lock protects the cluster, so it must not block.
	OnMove func(Move)
}

func (c Config) withDefaults() Config {
	if c.MaxMovesPerRound <= 0 {
		c.MaxMovesPerRound = DefaultMaxMovesPerRound
	}
	if c.MaxMovesPerPM <= 0 {
		c.MaxMovesPerPM = DefaultMaxMovesPerPM
	}
	if c.MinGainFrac <= 0 {
		c.MinGainFrac = DefaultMinGainFrac
	}
	return c
}

// Move is one committed migration.
type Move struct {
	// VM and VMType identify the migrated instance.
	VM     int
	VMType string
	// From and To are the source and destination PM ids; ToType is
	// the destination's catalog type.
	From   int
	To     int
	ToType string
	// Assign is the concrete anti-collocation assignment committed on
	// the destination.
	Assign resource.Assignment
	// Score is the accommodation score on the destination; Gain is
	// Score minus the score of re-accommodating on the source (Score
	// itself when the source profile was outside the rank table).
	Score float64
	Gain  float64
	// Drain marks a move made by the drain pass rather than the rank
	// pass.
	Drain bool
}

// RoundStats summarizes one rebalance round.
type RoundStats struct {
	// Scanned counts the VMs the round considered moving.
	Scanned int
	// Moves is the committed total; DrainMoves and RankMoves split it
	// by pass.
	Moves      int
	DrainMoves int
	RankMoves  int
	// PMsFreed is the drop in active PM count over the round.
	PMsFreed int
	// RankGain sums the per-move score gains.
	RankGain float64
	// BudgetExhausted reports that the round consumed its full
	// MaxMovesPerRound budget (or skipped a drain for lack of it) —
	// more rebalancing work remained than the budget allowed.
	BudgetExhausted bool
}

// Add accumulates o into s — the serve daemon sums per-shard rounds
// into one summary.
func (s *RoundStats) Add(o RoundStats) {
	s.Scanned += o.Scanned
	s.Moves += o.Moves
	s.DrainMoves += o.DrainMoves
	s.RankMoves += o.RankMoves
	s.PMsFreed += o.PMsFreed
	s.RankGain += o.RankGain
	s.BudgetExhausted = s.BudgetExhausted || o.BudgetExhausted
}

// metrics pre-resolves the engine's instruments; all nil (and every
// call a no-op branch) when Config.Obs is unset.
type metrics struct {
	rounds          *obs.Counter   // deschedule.rounds
	moves           *obs.Counter   // deschedule.moves
	drainMoves      *obs.Counter   // deschedule.drain_moves
	rankMoves       *obs.Counter   // deschedule.rank_moves
	pmsFreed        *obs.Counter   // deschedule.pms_freed
	budgetExhausted *obs.Counter   // deschedule.budget_exhausted
	rankGain        *obs.Histogram // deschedule.rank_gain
	roundSecs       *obs.Histogram // deschedule.round_seconds
}

func newMetrics(o *obs.Observer) metrics {
	return metrics{
		rounds:          o.Counter("deschedule.rounds"),
		moves:           o.Counter("deschedule.moves"),
		drainMoves:      o.Counter("deschedule.drain_moves"),
		rankMoves:       o.Counter("deschedule.rank_moves"),
		pmsFreed:        o.Counter("deschedule.pms_freed"),
		budgetExhausted: o.Counter("deschedule.budget_exhausted"),
		rankGain:        o.Histogram("deschedule.rank_gain", obs.ExpBuckets(1e-9, 10, 12)),
		roundSecs:       o.Histogram("deschedule.round_seconds", obs.DefSecondsBuckets()),
	}
}

// Engine plans and executes rebalance rounds over one cluster. It
// shares the cluster's single-threaded discipline: callers serialize
// Rebalance with every other cluster access (the serve daemon runs it
// under the owning shard's lock; the simulator is single-threaded).
type Engine struct {
	placer *placement.PageRankVM
	cfg    Config
	met    metrics
}

// New builds an engine around the placer whose rank tables and seeded
// tie-breaking the moves should follow — the same placer instance that
// admits VMs to the cluster, so rebalance decisions draw from the one
// rng stream that keeps runs reproducible.
func New(placer *placement.PageRankVM, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{placer: placer, cfg: cfg, met: newMetrics(cfg.Obs)}
}

// Rebalance runs one round against the cluster and returns its stats.
func (e *Engine) Rebalance(c *placement.Cluster) RoundStats {
	start := time.Now()
	var st RoundStats
	budget := e.cfg.MaxMovesPerRound
	usedBefore := c.NumUsed()
	// movesFrom enforces the per-source cap; received marks PMs that
	// gained a VM this round, which the round never drains or empties
	// afterwards (prevents intra-round shuffling). Lookup only — never
	// ranged over.
	movesFrom := make(map[int]int)
	received := make(map[int]bool)

	if e.cfg.DrainBelow > 0 {
		e.drainPass(c, &budget, movesFrom, received, &st)
	}
	e.rankPass(c, &budget, movesFrom, received, &st)

	st.PMsFreed = usedBefore - c.NumUsed()
	if budget <= 0 {
		st.BudgetExhausted = true
	}
	e.met.rounds.Inc()
	e.met.moves.Add(int64(st.Moves))
	e.met.drainMoves.Add(int64(st.DrainMoves))
	e.met.rankMoves.Add(int64(st.RankMoves))
	e.met.pmsFreed.Add(int64(st.PMsFreed))
	if st.BudgetExhausted {
		e.met.budgetExhausted.Inc()
	}
	e.met.roundSecs.Observe(time.Since(start).Seconds())
	return st
}

// drainPass evacuates underloaded PMs entirely, emptiest first. Only
// full drains are attempted: every hosted VM needs an active
// destination and the whole PM must fit the remaining budget and the
// per-source cap, so a drain either frees its PM or (on a mid-drain
// placement failure) stops with the stragglers re-hosted in place.
func (e *Engine) drainPass(c *placement.Cluster, budget *int, movesFrom map[int]int, received map[int]bool, st *RoundStats) {
	type cand struct {
		pm   *placement.PM
		fill float64
	}
	var cands []cand
	for _, pm := range c.UsedPMs() {
		if pm.Cordoned() {
			continue
		}
		fill := float64(pm.Used().Sum()) / float64(pm.Shape.TotalCapacity())
		if fill < e.cfg.DrainBelow {
			cands = append(cands, cand{pm: pm, fill: fill})
		}
	}
	// Emptiest first — the cheapest PMs to free; stable sort keeps
	// used-list order among equals.
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].fill < cands[j].fill })

	for _, cd := range cands {
		pm := cd.pm
		if !pm.Active() || received[pm.ID] {
			continue
		}
		n := pm.NumVMs()
		if n > *budget || n > e.cfg.MaxMovesPerPM-movesFrom[pm.ID] {
			st.BudgetExhausted = true
			continue
		}
		moved := e.drainPM(c, pm, received, st)
		*budget -= moved
		movesFrom[pm.ID] += moved
	}
}

// drainPM moves the PM's VMs (ascending id) onto active destinations,
// stopping at the first VM with none (it stays where it was). Returns
// the number of committed moves.
func (e *Engine) drainPM(c *placement.Cluster, src *placement.PM, received map[int]bool, st *RoundStats) int {
	moved := 0
	for _, id := range src.VMIDs() {
		st.Scanned++
		if _, ok := e.move(c, src, id, true, received); !ok {
			break
		}
		moved++
		st.Moves++
		st.DrainMoves++
	}
	return moved
}

// rankPass re-asks Algorithm 2 where each VM would land today and
// moves it when an already-active destination clears the gain margin.
func (e *Engine) rankPass(c *placement.Cluster, budget *int, movesFrom map[int]int, received map[int]bool, st *RoundStats) {
	// Snapshot the used list: moves mutate it mid-pass.
	active := append([]*placement.PM(nil), c.UsedPMs()...)
	for _, pm := range active {
		if *budget <= 0 {
			return
		}
		if pm.Cordoned() || received[pm.ID] {
			continue
		}
		for _, id := range pm.VMIDs() {
			if *budget <= 0 {
				return
			}
			if movesFrom[pm.ID] >= e.cfg.MaxMovesPerPM {
				break
			}
			st.Scanned++
			if gain, ok := e.move(c, pm, id, false, received); ok {
				*budget--
				movesFrom[pm.ID]++
				st.Moves++
				st.RankMoves++
				st.RankGain += gain
			}
			if !pm.Active() {
				break // the move emptied the source
			}
		}
	}
}

// move migrates one VM off src through placement.Cluster.Migrate:
// Algorithm 2 picks today's destination (source excluded), and the move
// commits only onto an already-active PM that — for rank moves; a
// drain's gain is the freed PM — clears the gain margin. Otherwise the
// VM stays exactly where it was.
func (e *Engine) move(c *placement.Cluster, src *placement.PM, vmID int, drain bool, received map[int]bool) (gain float64, ok bool) {
	var srcScore, destScore float64
	var srcOK bool
	h, dest, _ := c.Migrate(e.placer, vmID, func(h placement.Hosted, dest *placement.PM, _ resource.Assignment) bool {
		if !dest.Active() {
			return false
		}
		srcScore, srcOK = e.placer.ScoreOn(src, h.VM)
		var destOK bool
		destScore, destOK = e.placer.ScoreOn(dest, h.VM)
		// A source profile outside the rank table (srcOK false) always
		// loses to a scored destination: the VM currently sits on an
		// undevelopable profile.
		return drain || destOK && !(srcOK && destScore <= srcScore*(1+e.cfg.MinGainFrac))
	})
	if dest == nil {
		return 0, false
	}
	received[dest.ID] = true
	gain = destScore
	if srcOK {
		gain = destScore - srcScore
	}
	e.emit(Move{
		VM: vmID, VMType: h.VM.Type,
		From: src.ID, To: dest.ID, ToType: dest.Type,
		Assign: h.Assign, Score: destScore, Gain: gain, Drain: drain,
	})
	return gain, true
}

// Ops returns the move in its log form: a release op on the source
// followed by a place op on the destination (the PR 6 record format,
// which is also the serve daemon's WAL shape).
func (m Move) Ops() [2]record.Op {
	return [2]record.Op{{
		Kind:   record.OpRelease,
		VM:     m.VM,
		VMType: m.VMType,
		PM:     m.From,
	}, {
		Kind:   record.OpPlace,
		VM:     m.VM,
		VMType: m.VMType,
		PM:     m.To,
		PMType: m.ToType,
		Assign: record.AssignOf(m.Assign),
		Score:  m.Score,
	}}
}

// emit logs a committed move (its op pair when a recorder is attached),
// fires the OnMove hook, and feeds the gain histogram.
func (e *Engine) emit(m Move) {
	if e.cfg.Recorder.Active() {
		for _, op := range m.Ops() {
			e.cfg.Recorder.RecordOp(op)
		}
	}
	if e.cfg.OnMove != nil {
		e.cfg.OnMove(m)
	}
	e.met.rankGain.Observe(m.Gain)
}
