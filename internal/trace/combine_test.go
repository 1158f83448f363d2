package trace

import (
	"math"
	"testing"

	"pagerankvm/internal/opt"
)

func TestOverlay(t *testing.T) {
	base := Series{0.3, 0.7, 0.5}
	burst := Series{0.0, 0.6, 0.9, 0.4}
	got := Overlay(base, burst)
	want := Series{0.3, 1.0, 1.0}
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("Overlay[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestBurstsDeterministicAndBounded(t *testing.T) {
	a := Bursts(7, 3, 500, BurstConfig{})
	b := Bursts(7, 3, 500, BurstConfig{})
	if len(a) != 500 {
		t.Fatalf("len = %d", len(a))
	}
	sawBurst := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d", i)
		}
		if a[i] < 0 || a[i] > 1 {
			t.Fatalf("sample %v out of range", a[i])
		}
		if a[i] > 0.4 {
			sawBurst = true
		}
	}
	if !sawBurst {
		t.Fatal("no bursts in 500 steps at default probability")
	}
	c := Bursts(8, 3, 500, BurstConfig{})
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical bursts")
	}
}

func TestBurstsDecay(t *testing.T) {
	// A burst decays geometrically: after a peak the next samples are
	// strictly smaller until the next burst.
	s := Bursts(1, 1, 2000, BurstConfig{Prob: opt.F(0.005), Min: 0.9, Max: opt.F(0.9), Decay: opt.F(0.5)})
	found := false
	for i := 0; i+1 < len(s); i++ {
		if s[i] == 0.9 && s[i+1] != 0.9 {
			if math.Abs(s[i+1]-0.45) > 1e-12 {
				t.Fatalf("decay after peak = %v, want 0.45", s[i+1])
			}
			found = true
			break
		}
	}
	if !found {
		t.Skip("no isolated burst found; decay unverifiable for this seed")
	}
}

// offGen returns one sample more than asked for even ids and one
// fewer for odd ids, so the overlay's truncation to the shorter input
// is exercised both ways.
type offGen struct{ PlanetLab }

func (g offGen) Series(vmID, steps int) Series {
	return g.PlanetLab.Series(vmID, steps+1-2*(vmID%2))
}

// OverlaidSeries must equal Overlay(gen.Series, Bursts) bit for bit,
// for runs of equal burst ids, an id that recurs after another, and a
// generator returning long and short series.
func TestOverlaidSeriesMatchesOverlay(t *testing.T) {
	const steps = 60
	cfg := BurstConfig{Prob: opt.F(0.2)}
	burstIDs := []int{5, 5, 5, 0, 0, 9, 5, 5, -3, 0}
	for _, gen := range []Generator{PlanetLab{Seed: 4}, Google{Seed: 4}, offGen{PlanetLab{Seed: 4}}} {
		got := OverlaidSeries(gen, steps, 11, cfg, burstIDs)
		if len(got) != len(burstIDs) {
			t.Fatalf("%d series for %d ids", len(got), len(burstIDs))
		}
		for id, b := range burstIDs {
			want := Overlay(gen.Series(id, steps), Bursts(11, b, steps, cfg))
			if len(got[id]) != len(want) {
				t.Fatalf("%s vm %d: %d samples, want %d", gen.Name(), id, len(got[id]), len(want))
			}
			for i := range want {
				if math.Float64bits(got[id][i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s vm %d step %d: %v, want %v", gen.Name(), id, i, got[id][i], want[i])
				}
			}
		}
	}
}
