package serve

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"testing"

	"pagerankvm/internal/experiments"
)

// replyWriter is the least http.ResponseWriter: the status and the bytes
// of one reply.
type replyWriter struct {
	header http.Header
	code   int
	body   []byte
}

func (w *replyWriter) Header() http.Header         { return w.header }
func (w *replyWriter) WriteHeader(code int)        { w.code = code }
func (w *replyWriter) Write(b []byte) (int, error) { w.body = append(w.body, b...); return len(b), nil }

// directCaller posts canonical bodies straight into a server's handler,
// one at a time, reusing its request, body reader and writer: what it
// costs per request is the handler's own cost.
type directCaller struct {
	s    *Server
	req  *http.Request
	rd   bytes.Reader
	body []byte
	w    replyWriter
}

func newDirectCaller(s *Server) *directCaller {
	c := &directCaller{s: s, req: httptest.NewRequest(http.MethodPost, "/v1/place", nil), w: replyWriter{header: http.Header{}}}
	c.req.Body = io.NopCloser(&c.rd)
	return c
}

func (c *directCaller) post(path string) int {
	c.rd.Reset(c.body)
	c.req.URL.Path = path
	c.w.code, c.w.body = http.StatusOK, c.w.body[:0]
	c.s.ServeHTTP(&c.w, c.req)
	return c.w.code
}

// place posts {"vm":id,"type":typ}.
func (c *directCaller) place(id int, typ string) int {
	c.body = strconv.AppendInt(append(c.body[:0], `{"vm":`...), int64(id), 10)
	c.body = append(append(append(c.body, `,"type":"`...), typ...), `"}`...)
	return c.post("/v1/place")
}

// release posts {"vm":id}.
func (c *directCaller) release(id int) int {
	c.body = append(strconv.AppendInt(append(c.body[:0], `{"vm":`...), int64(id), 10), '}')
	return c.post("/v1/release")
}

// seqFill is the resident VM count a sequential place benchmark starts
// from and returns to: about the serve-small fill on the same 128 PMs.
const seqFill = 400

// newSequentialServer is the serve-small daemon without the network:
// 128 PMs in 2 shards, the WAL in a temporary directory, no periodic
// snapshots, filled with seqFill VMs (ids 0..seqFill-1) of the catalog
// mix. It returns the caller and the type stream for later places.
func newSequentialServer(tb testing.TB) (*Server, *directCaller, func() string) {
	tb.Helper()
	cat, reg := testEnv(tb)
	s, err := New(Config{Rankers: reg, PMs: cat.BuildCluster(64).PMs(), NewVM: cat.NewVM,
		Shards: 2, DataDir: tb.TempDir(), SnapshotEvery: -1})
	if err != nil {
		tb.Fatal(err)
	}
	mix := experiments.VMMix()
	names := make([]string, 0, len(mix))
	for name := range mix {
		names = append(names, name)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(1))
	next := func() string { return experiments.SampleVMType(mix, names, rng.Float64()) }
	c := newDirectCaller(s)
	for id := 0; id < seqFill; id++ {
		if code := c.place(id, next()); code != http.StatusOK {
			tb.Fatalf("fill vm %d: status %d %s", id, code, c.w.body)
		}
	}
	return s, c, next
}

// BenchmarkServePlaceSequential is the place handler as a caller that
// places one VM at a time sees it — the serve-large set-up's fill —
// without the network: body read, decision, commit, WAL flush, reply.
// Every 200 places the timer stops while they are released again, so
// the fill stays between seqFill and seqFill+200 VMs.
func BenchmarkServePlaceSequential(b *testing.B) {
	s, c, next := newSequentialServer(b)
	defer func() { _ = s.Close() }()
	const window = 200
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := c.place(seqFill+i, next()); code != http.StatusOK {
			b.Fatalf("place: status %d %s", code, c.w.body)
		}
		if (i+1)%window == 0 || i == b.N-1 {
			b.StopTimer()
			for id := seqFill + i - i%window; id <= seqFill+i; id++ {
				if code := c.release(id); code != http.StatusOK {
					b.Fatalf("release %d: status %d %s", id, code, c.w.body)
				}
			}
			b.StartTimer()
		}
	}
}
