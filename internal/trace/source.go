package trace

import (
	"math/rand"
	"sync"
)

// source is math/rand's additive lagged-Fibonacci generator (the
// rngSource behind rand.NewSource) step for step, so every draw through
// rand.New equals math/rand's own for the same seed. Only Seed
// computes differently: math/rand walks a 1 841-step Schrage chain
// x ← 48271·x mod (2³¹−1), each step waiting on the one before; step k
// is x₀·48271ᵏ mod (2³¹−1), so here the steps are independent products
// with a power table.
type source struct {
	tap, feed int
	vec       [srcLen]int64
}

const (
	srcLen, srcTap = 607, 273
	srcMod         = 1<<31 - 1 // the chain's prime modulus
	srcSkip        = 20        // chain steps Seed discards before word 0
)

var (
	// srcPow[3i+j] is 48271^(srcSkip+1+3i+j) mod srcMod: the chain
	// steps word i is made of.
	srcPow [3 * srcLen]uint64
	// srcCooked is math/rand's rngCooked, XORed into every seeded word.
	srcCooked [srcLen]int64
)

func init() {
	p := uint64(1)
	for k := 1; k <= srcSkip+3*srcLen; k++ {
		if p = p * 48271 % srcMod; k > srcSkip {
			srcPow[k-srcSkip-1] = p
		}
	}
	// rngCooked is recovered from math/rand itself. Output n of a fresh
	// source is word feed(n) = (333−n) mod 607 plus word 606−n, stored
	// back into feed(n); one turn of 607 outputs writes every word once,
	// so undoing the sums in reverse gives seed 1's state, and XORing
	// off the chain's part leaves the table.
	feed := func(n int) int { return (2*srcLen - srcTap - 1 - n) % srcLen }
	ref := rand.NewSource(1).(rand.Source64)
	for n := 0; n < srcLen; n++ {
		srcCooked[feed(n)] = int64(ref.Uint64())
	}
	for n := srcLen - 1; n >= 0; n-- {
		srcCooked[feed(n)] -= srcCooked[srcLen-1-n]
	}
	for i := range srcCooked {
		srcCooked[i] ^= chainWord(1, i)
	}
}

// chainWord is the part of seeded word i that comes from the chain
// started at x0, in [1, 2³¹−1).
func chainWord(x0 uint64, i int) int64 {
	return int64(mulMod(x0, srcPow[3*i])<<40 ^ mulMod(x0, srcPow[3*i+1])<<20 ^ mulMod(x0, srcPow[3*i+2]))
}

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹ by folding the
// product's high bits onto its low ones (2³¹ ≡ 1).
func mulMod(a, b uint64) uint64 {
	p := a * b
	if p = p&srcMod + p>>31; p >= srcMod {
		p -= srcMod
	}
	return p
}

// Seed implements rand.Source, reducing seed as math/rand does.
func (s *source) Seed(seed int64) {
	s.tap, s.feed = 0, srcLen-srcTap
	if seed %= srcMod; seed < 0 {
		seed += srcMod
	}
	if seed == 0 {
		seed = 89482311
	}
	for i := range s.vec {
		s.vec[i] = chainWord(uint64(seed), i) ^ srcCooked[i]
	}
}

// Uint64 implements rand.Source64.
func (s *source) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += srcLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += srcLen
	}
	s.vec[s.feed] += s.vec[s.tap]
	return uint64(s.vec[s.feed])
}

// Int63 implements rand.Source.
func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// randPool holds *rand.Rand over a source: a series re-seeds one
// rather than allocating and clearing a 4.9 KB source per VM.
var randPool = sync.Pool{New: func() any { return rand.New(new(source)) }}

// seeded returns a pooled *rand.Rand that draws exactly what
// rand.New(rand.NewSource(seed)) would; hand it back with randPool.Put.
func seeded(seed int64) *rand.Rand {
	r := randPool.Get().(*rand.Rand)
	r.Seed(seed)
	return r
}
