//go:build !race

package serve

// The place handler's allocation gate, excluded under -race because the
// race runtime instruments allocations and skews AllocsPerRun.

import (
	"net/http"
	"testing"
)

// One canonical place through ServeHTTP allocates four times once the
// fill has grown its lists: the type name read from the body, the VM
// NewVM builds, the placer's assignment and the op's copy of it. The
// body is read and the reply written without reflection, and the
// request waits on no other goroutine.
func TestPlaceHandlerAllocs(t *testing.T) {
	s, c, next := newSequentialServer(t)
	defer func() { _ = s.Close() }()
	// Cycle the measured number of VMs in and out first, so the lists
	// and maps the placement library grows with the fill have grown.
	id := seqFill
	for cycle := 0; cycle < 20; cycle++ {
		from := id
		for ; id < from+101; id++ {
			if code := c.place(id, next()); code != http.StatusOK {
				t.Fatalf("place %d: status %d %s", id, code, c.w.body)
			}
		}
		for vm := from; vm < id; vm++ {
			if code := c.release(vm); code != http.StatusOK {
				t.Fatalf("release %d: status %d %s", vm, code, c.w.body)
			}
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if code := c.place(id, next()); code != http.StatusOK {
			t.Fatalf("place %d: status %d %s", id, code, c.w.body)
		}
		id++
	})
	if allocs > 4 {
		t.Fatalf("a place request allocates %.1f times, want at most 4", allocs)
	}
}
