package pagerank

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pagerankvm/internal/opt"
)

func TestRanksEmptyGraph(t *testing.T) {
	if _, err := RanksCSR(NewCSR(nil), Options{}); err == nil {
		t.Fatal("Ranks accepted an empty graph")
	}
}

func TestRanksBadOptions(t *testing.T) {
	g := [][]int32{nil}
	if _, err := RanksCSR(NewCSR(g), Options{Damping: opt.F(1.5)}); err == nil {
		t.Error("accepted damping >= 1")
	}
	if _, err := RanksCSR(NewCSR(g), Options{Damping: opt.F(-0.5)}); err == nil {
		t.Error("accepted negative damping")
	}
	if _, err := RanksCSR(NewCSR(g), Options{Epsilon: opt.F(-1)}); err == nil {
		t.Error("accepted negative epsilon")
	}
}

func TestRanksSingleNode(t *testing.T) {
	res, err := RanksCSR(NewCSR([][]int32{nil}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("single node did not converge")
	}
	if res.Ranks[0] != 1 {
		t.Errorf("rank = %v, want 1 after normalization", res.Ranks[0])
	}
}

// In a chain a->b->c, rank must increase along the chain: every node
// votes for its successor.
func TestRanksChainOrdering(t *testing.T) {
	g := [][]int32{{1}, {2}, nil}
	res, err := RanksCSR(NewCSR(g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Ranks
	if !(r[2] > r[1] && r[1] > r[0]) {
		t.Fatalf("chain ranks not increasing: %v", r)
	}
}

// A node with two in-links from equally ranked sources outranks a node
// with one.
func TestRanksInDegreeMatters(t *testing.T) {
	// 0 -> 2, 1 -> 2, 3 -> 4. Node 2 has two voters, node 4 one.
	g := [][]int32{{2}, {2}, nil, {4}, nil}
	res, err := RanksCSR(NewCSR(g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks[2] <= res.Ranks[4] {
		t.Fatalf("rank[2]=%v should exceed rank[4]=%v", res.Ranks[2], res.Ranks[4])
	}
}

func TestRanksNormalizedAndNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(30)
		g := make([][]int32, n)
		// Random DAG: edges only i -> j with j > i.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Intn(3) == 0 {
					g[i] = append(g[i], int32(j))
				}
			}
		}
		res, err := RanksCSR(NewCSR(g), Options{})
		if err != nil || !res.Converged {
			return false
		}
		sum := 0.0
		for _, x := range res.Ranks {
			if x < 0 || math.IsNaN(x) {
				return false
			}
			sum += x
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestRanksDeterministic(t *testing.T) {
	g := [][]int32{{1, 2}, {2}, {3}, nil}
	a, err := RanksCSR(NewCSR(g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RanksCSR(NewCSR(g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Ranks {
		if a.Ranks[i] != b.Ranks[i] {
			t.Fatalf("non-deterministic ranks at %d: %v vs %v", i, a.Ranks[i], b.Ranks[i])
		}
	}
}

func TestBPRUChain(t *testing.T) {
	// 0 -> 1 -> 2(terminal, util .75); 3 terminal util .5.
	g := [][]int32{{1}, {2}, nil, nil}
	utils := []float64{0.1, 0.5, 0.75, 0.5}
	b, err := BPRUCSR(NewCSR(g), utils)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.75, 0.75, 0.75, 0.5}
	for i := range want {
		if b[i] != want[i] {
			t.Errorf("bpru[%d] = %v, want %v", i, b[i], want[i])
		}
	}
}

func TestBPRUBranching(t *testing.T) {
	// 0 -> {1,2}; 1 terminal util 1.0; 2 -> 3 terminal util 0.6.
	g := [][]int32{{1, 2}, nil, {3}, nil}
	utils := []float64{0.2, 1.0, 0.4, 0.6}
	b, err := BPRUCSR(NewCSR(g), utils)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 1.0 {
		t.Errorf("bpru[0] = %v, want 1.0 (best reachable terminal)", b[0])
	}
	if b[2] != 0.6 {
		t.Errorf("bpru[2] = %v, want 0.6", b[2])
	}
}

func TestBPRUDetectsCycle(t *testing.T) {
	g := [][]int32{{1}, {0}}
	if _, err := BPRUCSR(NewCSR(g), []float64{0, 0}); err == nil {
		t.Fatal("BPRU accepted a cyclic graph")
	}
}

func TestBPRULengthMismatch(t *testing.T) {
	if _, err := BPRUCSR(NewCSR([][]int32{nil}), nil); err == nil {
		t.Fatal("BPRU accepted mismatched utils")
	}
}

func TestBPRUSharedSubDAG(t *testing.T) {
	// Diamond: 0 -> {1,2} -> 3 (terminal util .9). Memoization must
	// not double-visit.
	g := [][]int32{{1, 2}, {3}, {3}, nil}
	utils := []float64{0, 0, 0, 0.9}
	b, err := BPRUCSR(NewCSR(g), utils)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if b[i] != 0.9 {
			t.Errorf("bpru[%d] = %v, want 0.9", i, b[i])
		}
	}
}

func TestScoresDiscount(t *testing.T) {
	// Two parallel chains of equal topology but different terminal
	// utilization; the high-utilization chain must win after BPRU.
	g := NewCSR([][]int32{{1}, nil, {3}, nil})
	utils := []float64{0.5, 1.0, 0.5, 0.5}
	scores, res, err := ScoresCSR(g, g, utils, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if scores[0] <= scores[2] {
		t.Errorf("score[0]=%v should exceed score[2]=%v (BPRU discount)", scores[0], scores[2])
	}
	if scores[1] <= scores[3] {
		t.Errorf("score[1]=%v should exceed score[3]=%v", scores[1], scores[3])
	}
}

func TestScoresErrorPropagation(t *testing.T) {
	if _, _, err := ScoresCSR(CSR{}, CSR{}, nil, Options{}); err == nil {
		t.Error("ScoresCSR accepted empty graph")
	}
	g := NewCSR([][]int32{{1}, {0}})
	if _, _, err := ScoresCSR(g, g, []float64{0, 0}, Options{}); err == nil {
		t.Error("ScoresCSR accepted a cyclic graph")
	}
}

func TestRanksMaxIterCap(t *testing.T) {
	g := [][]int32{{1}, {2}, nil}
	res, err := RanksCSR(NewCSR(g), Options{Epsilon: opt.F(1e-300), MaxIter: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("claimed convergence with impossible epsilon")
	}
	if res.Iterations != 3 {
		t.Errorf("Iterations = %d, want 3", res.Iterations)
	}
}

func TestRanksResiduals(t *testing.T) {
	// A small cyclic graph so the power iteration actually runs a few
	// rounds before converging.
	g := [][]int32{{1, 2}, {2}, {0}}
	res, err := RanksCSR(NewCSR(g), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if len(res.Residuals) != res.Iterations {
		t.Fatalf("len(Residuals) = %d, want Iterations = %d", len(res.Residuals), res.Iterations)
	}
	last := res.Residuals[len(res.Residuals)-1]
	if !(last < DefaultEpsilon) {
		t.Errorf("final residual %v not below Epsilon %v", last, DefaultEpsilon)
	}
	for i, r := range res.Residuals {
		if r < 0 || math.IsNaN(r) {
			t.Errorf("Residuals[%d] = %v, want non-negative", i, r)
		}
	}
}
