package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"
	"testing/fstest"

	"pagerankvm/internal/sim"
	"pagerankvm/internal/trace"
)

// Digests of the sim-paper-sized streams (3 000 VMs, 288 steps, seed 1)
// as the commit before the exact math/rand source and the in-place
// overlay fill generated them. Any change to a VM's id, type, lease or
// a single trace bit changes them.
const (
	parentPlanetLabStreamDigest = "2ce4a705e078c4f2155d2d91bfa642b25989bd8dfce4e15e1ceb1f9b679b6d64"
	parentGoogleStreamDigest    = "6b36604ed85e359af6d57fde04e3b6374bb987b148a04fcd96710d69e53795cc"
)

// streamDigest hashes a request stream in order: every VM's id, type,
// lease window and trace bits.
func streamDigest(wl []sim.Workload) string {
	h := sha256.New()
	for _, w := range wl {
		fmt.Fprintf(h, "%d %s %d %d %d|", w.VM.ID, w.VM.Type, w.Start, w.End, len(w.Trace))
		for _, x := range w.Trace {
			putU64(h, math.Float64bits(x))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStreamDigestMatchesParent pins the paper-sized seed-1 streams of
// both generators bit for bit to the parent commit's.
func TestStreamDigestMatchesParent(t *testing.T) {
	if testing.Short() {
		t.Skip("generates two 3 000-VM streams")
	}
	cat, err := AmazonCatalog()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		gen  trace.Generator
		want string
	}{
		{trace.PlanetLab{Seed: 1}, parentPlanetLabStreamDigest},
		{trace.Google{Seed: 1}, parentGoogleStreamDigest},
	} {
		wl, err := cat.GenWorkloads(tc.gen, WorkloadConfig{NumVMs: 3000, Seed: 1, Steps: 288})
		if err != nil {
			t.Fatal(err)
		}
		if got := streamDigest(wl); got != tc.want {
			t.Errorf("%s stream digest %s, want the parent's %s", tc.gen.Name(), got, tc.want)
		}
	}
}

// GenWorkloads must build byte-identical streams whatever GOMAXPROCS
// is: every series depends only on (seed, id), so a fill that ran on
// several workers would have to keep this.
func TestGenWorkloadsGOMAXPROCSDeterministic(t *testing.T) {
	cat, err := AmazonCatalog()
	if err != nil {
		t.Fatal(err)
	}
	files, err := trace.LoadDir(fstest.MapFS{
		"a": {Data: []byte("10\n20\n95\n")},
		"b": {Data: []byte("50\n")},
		"c": {Data: []byte("0\n100\n30\n40\n")},
	})
	if err != nil {
		t.Fatal(err)
	}
	gens := []trace.Generator{trace.PlanetLab{Seed: 7}, trace.Google{Seed: 7}, files}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, gen := range gens {
		want := ""
		for _, procs := range []int{1, 2, 5} {
			runtime.GOMAXPROCS(procs)
			wl, err := cat.GenWorkloads(gen, WorkloadConfig{NumVMs: 301, Seed: 3, Steps: 50})
			if err != nil {
				t.Fatal(err)
			}
			got := streamDigest(wl)
			if want == "" {
				want = got
			} else if got != want {
				t.Errorf("%s: GOMAXPROCS %d stream digest %s, GOMAXPROCS 1 gave %s", gen.Name(), procs, got, want)
			}
		}
	}
}
