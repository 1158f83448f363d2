package trace

import "testing"

// traceShape summarizes the series of VM ids [0, vms) of g: the mean
// sample, the mean per-series lag-1 autocorrelation, and the share of
// samples above 0.9 (near saturation, where hosts overload).
func traceShape(g Generator, vms, steps int) (mean, lag1, high float64) {
	n := 0
	for id := 0; id < vms; id++ {
		s := g.Series(id, steps)
		m := s.Mean()
		var num, den float64
		for i, x := range s {
			mean += x
			n++
			if x > 0.9 {
				high++
			}
			den += (x - m) * (x - m)
			if i > 0 {
				num += (x - m) * (s[i-1] - m)
			}
		}
		if den > 0 {
			lag1 += num / den
		}
	}
	return mean / float64(n), lag1 / float64(vms), high / float64(n)
}

// shapeBand bounds one trace-shape statistic.
type shapeBand struct {
	name   string
	lo, hi float64
}

// checkShape runs traceShape over 100 VMs × 288 steps for seeds the
// bands were not fitted on.
func checkShape(t *testing.T, gen func(seed int64) Generator, mean, lag1, high shapeBand) {
	t.Helper()
	for _, seed := range []int64{101, 102, 103} {
		m, r, h := traceShape(gen(seed), 100, 288)
		for _, c := range []struct {
			band shapeBand
			got  float64
		}{{mean, m}, {lag1, r}, {high, h}} {
			if c.got < c.band.lo || c.got > c.band.hi {
				t.Errorf("seed %d: %s %.5f outside [%v, %v]", seed, c.band.name, c.got, c.band.lo, c.band.hi)
			}
		}
	}
}

// The PlanetLab generator's shape. The bands are the mean ± 4 standard
// deviations of a 20-seed ensemble (seeds 1-20, 100 VMs × 288 steps
// each) of this generator: mean 0.3753 (sd 0.0052), lag-1
// autocorrelation 0.8411 (sd 0.0052), share above 0.9 0.0195 (sd
// 0.0011). A regenerated stream must keep them.
func TestPlanetLabShape(t *testing.T) {
	checkShape(t, func(seed int64) Generator { return PlanetLab{Seed: seed} },
		shapeBand{"mean", 0.354, 0.396},
		shapeBand{"lag-1 autocorrelation", 0.820, 0.862},
		shapeBand{"share above 0.9", 0.0150, 0.0240})
}

// The Google generator's shape. The bands are the mean ± 4 standard
// deviations of a 20-seed ensemble (seeds 1-20, 100 VMs × 288 steps
// each) of this generator: mean 0.3530 (sd 0.0053), lag-1
// autocorrelation 0.6522 (sd 0.0035), share above 0.9 0.0326 (sd
// 0.0014). A regenerated stream must keep them.
func TestGoogleShape(t *testing.T) {
	checkShape(t, func(seed int64) Generator { return Google{Seed: seed} },
		shapeBand{"mean", 0.332, 0.374},
		shapeBand{"lag-1 autocorrelation", 0.638, 0.666},
		shapeBand{"share above 0.9", 0.0270, 0.0382})
}
