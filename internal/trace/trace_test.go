package trace

import (
	"errors"
	"math"
	"testing"
)

func TestSeriesAt(t *testing.T) {
	s := Series{0.1, 0.2, 0.3}
	tests := []struct {
		give int
		want float64
	}{
		{give: -5, want: 0.1},
		{give: 0, want: 0.1},
		{give: 2, want: 0.3},
		{give: 99, want: 0.3},
	}
	for _, tt := range tests {
		if got := s.At(tt.give); got != tt.want {
			t.Errorf("At(%d) = %v, want %v", tt.give, got, tt.want)
		}
	}
	var empty Series
	if empty.At(0) != 0 {
		t.Error("empty series At != 0")
	}
}

func TestSeriesMeanMax(t *testing.T) {
	s := Series{0.2, 0.4, 0.6}
	if math.Abs(s.Mean()-0.4) > 1e-12 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if s.Max() != 0.6 {
		t.Errorf("Max = %v", s.Max())
	}
	var empty Series
	if empty.Mean() != 0 || empty.Max() != 0 {
		t.Error("empty series stats non-zero")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	gens := []Generator{PlanetLab{Seed: 7}, Google{Seed: 7}, Constant{Level: 0.5}}
	for _, g := range gens {
		t.Run(g.Name(), func(t *testing.T) {
			a := g.Series(13, 288)
			b := g.Series(13, 288)
			if len(a) != 288 || len(b) != 288 {
				t.Fatalf("wrong length %d/%d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("non-deterministic at %d", i)
				}
			}
		})
	}
}

func TestGeneratorsDifferPerVM(t *testing.T) {
	g := PlanetLab{Seed: 7}
	a, b := g.Series(1, 288), g.Series(2, 288)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different VMs got identical traces")
	}
}

func TestGeneratorsDifferPerSeed(t *testing.T) {
	a := Google{Seed: 1}.Series(1, 288)
	b := Google{Seed: 2}.Series(1, 288)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds got identical traces")
	}
}

func TestTracesBounded(t *testing.T) {
	gens := []Generator{PlanetLab{Seed: 3}, Google{Seed: 3}}
	for _, g := range gens {
		t.Run(g.Name(), func(t *testing.T) {
			for vm := 0; vm < 50; vm++ {
				for _, x := range g.Series(vm, 288) {
					if x < 0 || x > 1 {
						t.Fatalf("sample %v out of [0,1]", x)
					}
				}
			}
		})
	}
}

// The population statistics should land near what the generators give
// over many seeds: a mean of ~0.38 for PlanetLab and ~0.35 for Google
// (the diurnal swing, bursts and clamp lift both above their base Mean
// of 0.35 and 0.30), both with peaks near 1.
func TestTraceStatistics(t *testing.T) {
	tests := []struct {
		gen        Generator
		wantMeanLo float64
		wantMeanHi float64
	}{
		{gen: PlanetLab{Seed: 11}, wantMeanLo: 0.25, wantMeanHi: 0.45},
		{gen: Google{Seed: 11}, wantMeanLo: 0.20, wantMeanHi: 0.45},
	}
	for _, tt := range tests {
		t.Run(tt.gen.Name(), func(t *testing.T) {
			total, peak := 0.0, 0.0
			const vms = 200
			for vm := 0; vm < vms; vm++ {
				s := tt.gen.Series(vm, 288)
				total += s.Mean()
				if p := s.Max(); p > peak {
					peak = p
				}
			}
			mean := total / vms
			if mean < tt.wantMeanLo || mean > tt.wantMeanHi {
				t.Errorf("population mean %v outside [%v,%v]", mean, tt.wantMeanLo, tt.wantMeanHi)
			}
			if peak < 0.9 {
				t.Errorf("population peak %v, want near saturation", peak)
			}
		})
	}
}

// Consecutive samples must be autocorrelated (the paper's traces are
// real workloads, not white noise): lag-1 autocorrelation well above 0.
func TestTraceAutocorrelation(t *testing.T) {
	for _, g := range []Generator{PlanetLab{Seed: 5}, Google{Seed: 5}} {
		t.Run(g.Name(), func(t *testing.T) {
			s := g.Series(1, 288*4)
			mean := s.Mean()
			var num, den float64
			for i := 1; i < len(s); i++ {
				num += (s[i] - mean) * (s[i-1] - mean)
			}
			for _, x := range s {
				den += (x - mean) * (x - mean)
			}
			if den == 0 {
				t.Skip("degenerate series")
			}
			if r := num / den; r < 0.3 {
				t.Errorf("lag-1 autocorrelation %v, want >= 0.3", r)
			}
		})
	}
}

func TestConstant(t *testing.T) {
	s := Constant{Level: 0.5}.Series(0, 10)
	for _, x := range s {
		if x != 0.5 {
			t.Fatalf("constant sample %v", x)
		}
	}
	s = Constant{Level: 1.5}.Series(0, 1)
	if s[0] != 1 {
		t.Fatalf("constant not clamped: %v", s[0])
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"planetlab", "google", "constant"} {
		g, err := ByName(name, 1)
		if err != nil || g == nil {
			t.Errorf("ByName(%q) = %v, %v", name, g, err)
		}
	}
	if _, err := ByName("bogus", 1); !errors.Is(err, ErrUnknownGenerator) {
		t.Errorf("ByName(bogus) err = %v", err)
	}
}
