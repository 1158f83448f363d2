package pagerank

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomDAG draws a random DAG as per-node successor lists with edges
// pointing only to higher ids (so acyclicity holds by construction).
func randomDAG(rng *rand.Rand, n int) [][]int32 {
	succ := make([][]int32, n)
	for i := 0; i < n-1; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(3) == 0 {
				succ[i] = append(succ[i], int32(j))
			}
		}
	}
	return succ
}

func randomUtils(rng *rand.Rand, n int) []float64 {
	utils := make([]float64, n)
	for i := range utils {
		utils[i] = rng.Float64()
	}
	return utils
}

// TestCSRMatchesSliceForm: NewCSR must lay the per-node successor
// lists out unchanged — same node count, same successors, same order —
// since every iteration core reads only the arenas.
func TestCSRMatchesSliceForm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(40)
		succ := randomDAG(rng, n)
		g := NewCSR(succ)

		if g.Len() != n {
			t.Fatalf("trial %d: CSR Len = %d, want %d", trial, g.Len(), n)
		}
		for i := 0; i < n; i++ {
			got := g.Succ(i)
			if len(got) != len(succ[i]) {
				t.Fatalf("trial %d: node %d has %d successors in CSR, want %d", trial, i, len(got), len(succ[i]))
			}
			for k, j := range succ[i] {
				if got[k] != j {
					t.Fatalf("trial %d: node %d successor %d = %d, want %d", trial, i, k, got[k], j)
				}
			}
		}
	}
}

// TestCSRReverse checks Reverse against a naive per-node reversal,
// including the source-order guarantee (ascending sources per target)
// that keeps downstream float accumulation reproducible.
func TestCSRReverse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		succ := randomDAG(rng, n)
		rev := NewCSR(succ).Reverse()

		naive := make([][]int32, n)
		for i, out := range succ {
			for _, j := range out {
				naive[j] = append(naive[j], int32(i))
			}
		}
		want := NewCSR(naive)
		if !reflect.DeepEqual(rev.Offsets, want.Offsets) || !reflect.DeepEqual(rev.Edges, want.Edges) {
			t.Fatalf("trial %d: Reverse differs from naive reversal", trial)
		}
	}
}

// TestScratchPoolsZeroed guards the pool reuse: a dirty released
// buffer must never leak state into the next run. Two identical runs
// sandwiching an unrelated one must agree exactly.
func TestScratchPoolsZeroed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	succ := randomDAG(rng, 30)
	g := NewCSR(succ)
	utils := randomUtils(rng, 30)

	first, _, err := ScoresCSR(g, g, utils, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Pollute the pools with a differently-sized run.
	other := NewCSR(randomDAG(rng, 50))
	if _, err := RanksCSR(other, Options{}); err != nil {
		t.Fatal(err)
	}
	second, _, err := ScoresCSR(g, g, utils, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("repeated ScoresCSR runs differ; pooled scratch not zeroed")
	}
}
