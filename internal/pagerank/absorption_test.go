package pagerank

import (
	"math"
	"testing"
)

func TestAbsorptionValuesChain(t *testing.T) {
	// 0 -> 1 -> 2(terminal, util 1): V(2)=1, V(1)=d, V(0)=d^2.
	g := [][]int32{{1}, {2}, nil}
	utils := []float64{0.1, 0.5, 1.0}
	v, err := AbsorptionValuesCSR(NewCSR(g), utils, 0.85, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.7225, 0.85, 1}
	for i := range want {
		if math.Abs(v[i]-want[i]) > 1e-12 {
			t.Errorf("v[%d] = %v, want %v", i, v[i], want[i])
		}
	}
}

func TestAbsorptionValuesMean(t *testing.T) {
	// 0 -> {1, 2}; terminal utils 1 and 0.5; exponent 1.
	g := [][]int32{{1, 2}, nil, nil}
	utils := []float64{0, 1, 0.5}
	v, err := AbsorptionValuesCSR(NewCSR(g), utils, 0.8, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.8 * (1 + 0.5) / 2
	if math.Abs(v[0]-want) > 1e-12 {
		t.Fatalf("v[0] = %v, want %v", v[0], want)
	}
}

func TestAbsorptionValuesRewardExponent(t *testing.T) {
	g := [][]int32{nil}
	utils := []float64{0.5}
	v1, err := AbsorptionValuesCSR(NewCSR(g), utils, 0.85, 1)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := AbsorptionValuesCSR(NewCSR(g), utils, 0.85, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v1[0] != 0.5 || math.Abs(v3[0]-0.125) > 1e-12 {
		t.Fatalf("v1=%v v3=%v", v1[0], v3[0])
	}
}

func TestAbsorptionValuesSharedSubDAG(t *testing.T) {
	// Diamond: both paths meet at a shared terminal; memoization must
	// hold and both middles get d * 1.
	g := [][]int32{{1, 2}, {3}, {3}, nil}
	utils := []float64{0, 0, 0, 1}
	v, err := AbsorptionValuesCSR(NewCSR(g), utils, 0.9, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v[1] != 0.9 || v[2] != 0.9 {
		t.Fatalf("middles = %v, %v", v[1], v[2])
	}
	if math.Abs(v[0]-0.81) > 1e-12 {
		t.Fatalf("v[0] = %v", v[0])
	}
}

func TestAbsorptionValuesValidation(t *testing.T) {
	g := [][]int32{nil}
	if _, err := AbsorptionValuesCSR(NewCSR(g), nil, 0.85, 8); err == nil {
		t.Error("accepted mismatched utils")
	}
	if _, err := AbsorptionValuesCSR(NewCSR(g), []float64{1}, 0, 8); err == nil {
		t.Error("accepted zero damping")
	}
	if _, err := AbsorptionValuesCSR(NewCSR(g), []float64{1}, 1.5, 8); err == nil {
		t.Error("accepted damping > 1")
	}
	if _, err := AbsorptionValuesCSR(NewCSR(g), []float64{1}, 0.85, 0); err == nil {
		t.Error("accepted zero reward exponent")
	}
	cyclic := [][]int32{{1}, {0}}
	if _, err := AbsorptionValuesCSR(NewCSR(cyclic), []float64{0, 0}, 0.85, 8); err == nil {
		t.Error("accepted a cycle")
	}
}

func TestAbsorptionValuesDampingOne(t *testing.T) {
	// damping 1 is allowed: pure expected terminal reward.
	g := [][]int32{{1}, nil}
	v, err := AbsorptionValuesCSR(NewCSR(g), []float64{0, 1}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 1 {
		t.Fatalf("v[0] = %v", v[0])
	}
}

func TestAbsorptionValuesBounded(t *testing.T) {
	// Values always lie in [0, 1] for utils in [0, 1].
	g := [][]int32{{1, 2}, {3}, {3, 4}, nil, nil}
	utils := []float64{0.2, 0.3, 0.1, 0.9, 0.4}
	v, err := AbsorptionValuesCSR(NewCSR(g), utils, 0.85, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range v {
		if x < 0 || x > 1 {
			t.Fatalf("v[%d] = %v out of [0,1]", i, x)
		}
	}
}

// TestSweepRejectsUnorderedEdges: the single sweeps need every edge to
// point to a higher node id. A self-loop, and a backward edge in an
// otherwise acyclic graph, are errors for both of them.
func TestSweepRejectsUnorderedEdges(t *testing.T) {
	for _, c := range []struct {
		name string
		g    [][]int32
	}{
		{"self-loop", [][]int32{{1}, {1, 2}, nil}},
		{"backward edge", [][]int32{nil, {0}, {1}}}, // acyclic, but 1 -> 0 points down
	} {
		utils := []float64{0.5, 0.5, 1}
		if _, err := AbsorptionValuesCSR(NewCSR(c.g), utils, 0.85, 8); err == nil {
			t.Errorf("%s: AbsorptionValuesCSR accepted it", c.name)
		}
		if _, err := BPRUCSR(NewCSR(c.g), utils); err == nil {
			t.Errorf("%s: BPRUCSR accepted it", c.name)
		}
	}
}
