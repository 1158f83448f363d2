package trace

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// The cached seed-wide phase must be exactly what seeding a source per
// call drew, whatever seeds came before it.
func TestPlanetLabPhaseMatchesPerCall(t *testing.T) {
	seeds := []int64{1, 2, 1, -7, 1 << 40, 2, 0, 0}
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed)).Float64() * 2 * math.Pi
		if got := planetLabPhase(seed); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d: phase %v, per-call %v", seed, got, want)
		}
	}
}

// Two generators with different seeds, run concurrently, keep
// replacing each other's cached phase; every series must still equal
// the one generated alone. Meant for -race.
func TestPlanetLabSeriesConcurrentSeeds(t *testing.T) {
	const vms, steps = 200, 48
	seeds := []int64{11, 12, 13}
	alone := make([][]Series, len(seeds))
	for i, seed := range seeds {
		g := PlanetLab{Seed: seed}
		for id := 0; id < vms; id++ {
			alone[i] = append(alone[i], g.Series(id, steps))
		}
	}
	got := make([][]Series, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := PlanetLab{Seed: seed}
			for id := 0; id < vms; id++ {
				got[i] = append(got[i], g.Series(id, steps))
			}
		}()
	}
	wg.Wait()
	for i := range seeds {
		for id := range got[i] {
			for k, x := range got[i][id] {
				if math.Float64bits(x) != math.Float64bits(alone[i][id][k]) {
					t.Fatalf("seed %d vm %d step %d: %v concurrently, %v alone", seeds[i], id, k, x, alone[i][id][k])
				}
			}
		}
	}
}
