package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	c := o.Counter("x")
	if c != nil {
		t.Fatal("nil observer returned a counter")
	}
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	g := o.Gauge("y")
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	h := o.Histogram("z", nil)
	h.Observe(1.5)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram recorded")
	}
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram snapshot non-empty")
	}
	o.Emit(Event{Name: "e"})
	o.SetSink(NewRingSink(4))
	if o.TraceActive() {
		t.Fatal("nil observer trace active")
	}
	snap := o.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("nil observer snapshot non-empty")
	}
}

func TestCounterGaugeIdentity(t *testing.T) {
	o := New()
	a := o.Counter("placement.calls")
	b := o.Counter("placement.calls")
	if a != b {
		t.Fatal("same name resolved to different counters")
	}
	a.Inc()
	b.Add(2)
	if got := o.Counter("placement.calls").Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	g := o.Gauge("pms")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.7, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if math.Abs(s.Sum-106.7) > 1e-9 {
		t.Fatalf("sum = %v, want 106.7", s.Sum)
	}
	if s.Min != 0.5 || s.Max != 100 {
		t.Fatalf("min/max = %v/%v, want 0.5/100", s.Min, s.Max)
	}
	wantCounts := []int64{1, 2, 1, 1} // (-inf,1], (1,2], (2,4], overflow
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if q := s.Quantile(0); q < s.Min || q > s.Max {
		t.Fatalf("q0 = %v outside [min,max]", q)
	}
	if q := s.Quantile(1); q != s.Max {
		t.Fatalf("q1 = %v, want max %v", q, s.Max)
	}
	if s.P50 < s.Min || s.P50 > s.Max || s.P99 < s.P50 {
		t.Fatalf("quantiles out of order: p50=%v p99=%v", s.P50, s.P99)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	s := NewHistogram(nil).Snapshot()
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Fatal("empty histogram quantile not NaN")
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if exp[i] != want[i] {
			t.Fatalf("ExpBuckets = %v", exp)
		}
	}
	lin := LinearBuckets(0, 0.5, 3)
	want = []float64{0, 0.5, 1}
	for i := range want {
		if lin[i] != want[i] {
			t.Fatalf("LinearBuckets = %v", lin)
		}
	}
}

func TestRingSink(t *testing.T) {
	o := New()
	ring := NewRingSink(2)
	o.SetSink(ring)
	if !o.TraceActive() {
		t.Fatal("sink attached but trace inactive")
	}
	for i := 0; i < 3; i++ {
		o.Emit(Event{Name: "place", Fields: []Field{F("i", i)}})
	}
	events := ring.Events()
	if len(events) != 2 || ring.Total() != 3 {
		t.Fatalf("ring kept %d (total %d), want 2 (total 3)", len(events), ring.Total())
	}
	// Oldest-first: events 1 then 2 remain after 0 is evicted.
	if events[0].Fields[0].Val.(int) != 1 || events[1].Fields[0].Val.(int) != 2 {
		t.Fatalf("ring order wrong: %+v", events)
	}
	if events[0].Time.IsZero() {
		t.Fatal("event not stamped")
	}
	o.SetSink(nil)
	if o.TraceActive() {
		t.Fatal("trace active after detach")
	}
	o.Emit(Event{Name: "dropped"})
	if ring.Total() != 3 {
		t.Fatal("emit after detach reached sink")
	}
}

func TestSnapshotJSON(t *testing.T) {
	o := New()
	o.Counter("placement.place_calls").Add(42)
	o.Gauge("sim.active_pms").Set(7)
	o.Histogram("sim.place_seconds", nil).Observe(0.001)
	var buf bytes.Buffer
	if err := o.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["placement.place_calls"] != 42 {
		t.Fatalf("counter lost: %v", snap.Counters)
	}
	if snap.Gauges["sim.active_pms"] != 7 {
		t.Fatalf("gauge lost: %v", snap.Gauges)
	}
	h := snap.Histograms["sim.place_seconds"]
	if h.Count != 1 || h.Sum != 0.001 {
		t.Fatalf("histogram lost: %+v", h)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	o := New()
	o.Counter("c").Inc()
	ring := NewRingSink(8)
	o.SetSink(ring)
	o.Emit(Event{Name: "place", Fields: []Field{F("vm", 1)}})
	srv := httptest.NewServer(Handler(o, ring))
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, "prvm_c 1") {
		t.Fatalf("/metrics missing Prometheus counter: %s", body)
	}
	if body := get("/events"); !strings.Contains(body, `"event": "place"`) {
		t.Fatalf("/events missing event: %s", body)
	}
	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}
	for _, gone := range []string{"/metrics.json", "/debug/vars"} {
		resp, err := http.Get(srv.URL + gone)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: %s, want 404 (one metrics exposition: /metrics)", gone, resp.Status)
		}
	}
}

func TestServeEphemeral(t *testing.T) {
	o := New()
	o.Counter("x").Inc()
	addr, stop, err := Serve("127.0.0.1:0", o, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}

	// stop must close the listener (new connections refused) and join
	// the serve goroutine — the endpoint is no longer a leak.
	stop()
	if _, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after stop")
	}
	stop() // idempotent: a second stop must not hang or panic
}
