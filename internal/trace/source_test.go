package trace

import (
	"math"
	"math/rand"
	"testing"
)

// sourceSeeds are the seeds whose reduction modulo 2³¹−1 takes each
// branch of Seed, plus 1 000 drawn at random.
func sourceSeeds() []int64 {
	seeds := []int64{0, 1, -1, 89482311, 1<<31 - 2, 1<<31 - 1, 1 << 31, -(1<<31 - 1), math.MinInt64, math.MaxInt64}
	r := rand.New(rand.NewSource(20181))
	for i := 0; i < 1000; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// sameDraws fails unless got and want, both seeded alike, produce the
// same 2 000 draws of every kind the generators use.
func sameDraws(t *testing.T, seed int64, got, want *rand.Rand) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d draw %d: Uint64 %d, math/rand %d", seed, i, g, w)
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, i, g, w)
		}
		if g, w := got.Float64(), want.Float64(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("seed %d draw %d: Float64 %v, math/rand %v", seed, i, g, w)
		}
		if g, w := got.NormFloat64(), want.NormFloat64(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("seed %d draw %d: NormFloat64 %v, math/rand %v", seed, i, g, w)
		}
		if g, w := got.ExpFloat64(), want.ExpFloat64(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("seed %d draw %d: ExpFloat64 %v, math/rand %v", seed, i, g, w)
		}
		n := 1 + i%1000
		if g, w := got.Intn(n), want.Intn(n); g != w {
			t.Fatalf("seed %d draw %d: Intn(%d) %d, math/rand %d", seed, i, n, g, w)
		}
	}
}

// The source must draw exactly what math/rand's own source draws.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := sourceSeeds()
	if testing.Short() {
		seeds = seeds[:20]
	}
	for _, seed := range seeds {
		src := new(source)
		src.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 2000; i++ {
			if g, w := src.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: source Uint64 %d, math/rand %d", seed, i, g, w)
			}
			if g, w := src.Int63(), ref.Int63(); g != w {
				t.Fatalf("seed %d draw %d: source Int63 %d, math/rand %d", seed, i, g, w)
			}
		}
		sameDraws(t, seed, seeded(seed), rand.New(rand.NewSource(seed)))
	}
}

// A pooled generator re-seeded after heavy use must equal a fresh one:
// no state leaks from one VM's series into the next.
func TestSeededReuseLeaksNoState(t *testing.T) {
	r := rand.New(new(source))
	for _, seed := range []int64{5, 0, -3, 1 << 40, 5} {
		r.Seed(seed)
		sameDraws(t, seed, r, rand.New(rand.NewSource(seed)))
		for i := 0; i < 10000; i++ {
			r.NormFloat64()
		}
		r.Seed(seed)
		sameDraws(t, seed, r, rand.New(rand.NewSource(seed)))
	}
	for _, seed := range []int64{7, 7, 8} {
		p := seeded(seed)
		sameDraws(t, seed, p, rand.New(rand.NewSource(seed)))
		randPool.Put(p)
	}
}
