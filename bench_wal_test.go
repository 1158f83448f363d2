package pagerankvm_test

// Micro-benchmarks for the daemon's restart path: one op line through
// the record codec each way, and a whole serve.New over a WAL the size
// of the serve-large workload's.

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"pagerankvm/internal/experiments"
	"pagerankvm/internal/obs/record"
	"pagerankvm/internal/ranktable"
	"pagerankvm/internal/serve"
)

// benchOp is a typical place op: seven assigned dimensions and a score.
var benchOp = record.Op{
	Kind: record.OpPlace, VM: 123456, VMType: "c3.xlarge", PM: 2917, PMType: "C3", Score: 0.0040336958171470535,
	Assign: []record.OpAssign{{Dim: 2, Units: 1}, {Dim: 3, Units: 1}, {Dim: 4, Units: 1}, {Dim: 5, Units: 1}, {Dim: 11, Units: 5}, {Dim: 12, Units: 5}, {Dim: 8, Units: 2}},
}

// repeatReader serves rest, then line forever.
type repeatReader struct{ rest, line []byte }

func (r *repeatReader) Read(p []byte) (int, error) {
	if len(r.rest) == 0 {
		r.rest = r.line
	}
	n := copy(p, r.rest)
	r.rest = r.rest[n:]
	return n, nil
}

// BenchmarkOpLine prices one WAL line: RecordOp into a buffered writer,
// and Reader.Next over the line RecordOp wrote.
func BenchmarkOpLine(b *testing.B) {
	b.Run("encode", func(b *testing.B) {
		rec, err := record.NewWriter(io.Discard, record.RunMeta{Kind: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.RecordOp(benchOp)
		}
	})
	b.Run("decode", func(b *testing.B) {
		var buf bytes.Buffer
		rec, err := record.NewWriter(&buf, record.RunMeta{Kind: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		rec.RecordOp(benchOp)
		if err := rec.Close(); err != nil {
			b.Fatal(err)
		}
		stream := buf.Bytes()
		rd, err := record.NewReader(&repeatReader{rest: stream, line: stream[bytes.IndexByte(stream, '\n')+1:]})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if e, err := rd.Next(); err != nil || e.Op == nil {
				b.Fatalf("Next = %+v, %v", e, err)
			}
		}
	})
}

// BenchmarkWALReplay is the daemon's restart after a crash with no
// snapshot: serve.New over a 100 000-op WAL (a 16 000-VM fill, then
// release/place churn) on 3 200 PMs in 2 shards — the serve-large
// recovery, without the benchmark program around it.
func BenchmarkWALReplay(b *testing.B) {
	const ops, fill = 100_000, 16_000
	cat, err := experiments.AmazonCatalog()
	if err != nil {
		b.Fatal(err)
	}
	reg, err := cat.BuildRegistry(ranktable.Options{})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	config := func() serve.Config {
		return serve.Config{Rankers: reg, PMs: cat.BuildCluster(1600).PMs(), NewVM: cat.NewVM,
			Shards: 2, DataDir: dir, SnapshotEvery: -1}
	}
	s, err := serve.New(config())
	if err != nil {
		b.Fatal(err)
	}
	post := func(path string, body any) {
		raw, err := json.Marshal(body)
		if err != nil {
			b.Fatal(err)
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)))
		if w.Code != http.StatusOK {
			b.Fatalf("%s %s: status %d %s", path, raw, w.Code, w.Body)
		}
	}
	rng := rand.New(rand.NewSource(1))
	mix := experiments.VMMix()
	var names []string
	for name := range mix {
		names = append(names, name)
	}
	sort.Strings(names)
	resident := make([]int, 0, fill+1)
	for i := 0; i < ops; i++ {
		if i >= fill && i%2 == 0 {
			k := rng.Intn(len(resident))
			post("/v1/release", serve.ReleaseRequest{VM: resident[k]})
			resident[k] = resident[len(resident)-1]
			resident = resident[:len(resident)-1]
			continue
		}
		post("/v1/place", serve.PlaceRequest{VM: i, Type: experiments.SampleVMType(mix, names, rng.Float64())})
		resident = append(resident, i)
	}
	s.Kill()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := config() // a fresh inventory: recovery fills it
		b.StartTimer()
		r, err := serve.New(cfg)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if info := r.Recovery(); info.ReplayedOps != ops || info.Truncated {
			b.Fatalf("recovery %+v, want %d ops replayed", info, ops)
		}
		r.Kill()
		b.StartTimer()
	}
	b.ReportMetric(float64(ops)*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}
