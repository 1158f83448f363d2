package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Shutdown must not race the mutations in flight. Eight callers place
// and release straight into the handler while Close (or Kill) runs:
// every answer is 200 or 503 shutting_down — never wal_failed from an op
// appended to a closed segment — a graceful Close leaves the WAL
// healthy, and the recovered server holds exactly the acknowledged ops.
func TestShutdownRacesMutations(t *testing.T) {
	for _, mode := range []string{"close", "kill"} {
		t.Run(mode, func(t *testing.T) {
			for round := 0; round < 3; round++ {
				shutdownRound(t, mode == "kill")
			}
		})
	}
}

func shutdownRound(t *testing.T, kill bool) {
	const callers, resident = 8, 12
	dir := t.TempDir()
	s := newTestServer(t, dir, 4, 64)

	var (
		mu    sync.Mutex
		acked = map[int]foldedVM{} // what the 200s promised, folded
		ops   atomic.Int64
		wg    sync.WaitGroup
	)
	post := func(path, body string) (int, string) {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return w.Code, w.Body.String()
	}
	check := func(what string, code int, body string) bool {
		if code == http.StatusOK {
			ops.Add(1)
			return true
		}
		var er ErrorResponse
		if code != http.StatusServiceUnavailable || json.Unmarshal([]byte(body), &er) != nil || er.Code != "shutting_down" {
			t.Errorf("%s: status %d %s; want 200 or 503 shutting_down", what, code, body)
		}
		return false
	}
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []int
			for i := 0; ; i++ {
				if len(mine) >= resident {
					vm := mine[0]
					code, body := post("/v1/release", `{"vm":`+strconv.Itoa(vm)+`}`)
					if !check("release", code, body) {
						return
					}
					mu.Lock()
					delete(acked, vm)
					mu.Unlock()
					mine = mine[1:]
					continue
				}
				vm := c*1_000_000 + i
				code, body := post("/v1/place", `{"vm":`+strconv.Itoa(vm)+`,"type":"m3.medium"}`)
				if !check("place", code, body) {
					return
				}
				var pr PlaceResponse
				if err := json.Unmarshal([]byte(body), &pr); err != nil {
					t.Errorf("place %d: %v", vm, err)
					return
				}
				mu.Lock()
				acked[vm] = foldedVM{Type: "m3.medium", PM: pr.PM, Assign: pr.Assign}
				mu.Unlock()
				mine = append(mine, vm)
			}
		}(c)
	}
	for ops.Load() < 300 {
		time.Sleep(100 * time.Microsecond)
	}
	if kill {
		s.Kill()
	} else if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	wg.Wait()
	if !kill && s.walBroken.Load() {
		t.Error("a graceful Close left the WAL broken")
	}

	r := newTestServer(t, dir, 4, 64)
	defer func() { _ = r.Close() }()
	diffPlacements(t, acked, serverPlacements(r))
}
