package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"pagerankvm/internal/experiments"
	"pagerankvm/internal/obs/record"
	"pagerankvm/internal/placement"
)

// BenchmarkReplayApply is the apply half of the daemon's restart: the
// op stream BenchmarkWALReplay (package pagerankvm) recovers — a
// 16 000-VM fill, then release/place churn, 100 000 ops over 3 200 PMs
// in 2 shards — decoded once up front and fed straight to apply, with
// no file and no decoder. Its ops/s beside BenchmarkWALReplay's splits
// recovery into decode and apply.
func BenchmarkReplayApply(b *testing.B) {
	const ops, fill = 100_000, 16_000
	cat, reg := testEnv(b)
	dir := b.TempDir()
	config := func(dir string) Config {
		return Config{Rankers: reg, PMs: cat.BuildCluster(1600).PMs(), NewVM: cat.NewVM,
			Shards: 2, DataDir: dir, SnapshotEvery: -1}
	}
	s, err := New(config(dir))
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
			post("/v1/release", ReleaseRequest{VM: resident[k]})
			resident[k] = resident[len(resident)-1]
			resident = resident[:len(resident)-1]
			continue
		}
		post("/v1/place", PlaceRequest{VM: i, Type: experiments.SampleVMType(mix, names, rng.Float64())})
		resident = append(resident, i)
	}
	s.Kill()
	stream := make([]record.Op, 0, ops)
	if _, err := readSegmentOps(filepath.Join(dir, segmentName(0)), false, func(op record.Op) error {
		op.Assign = slices.Clone(op.Assign) // the scan reuses it
		stream = append(stream, op)
		return nil
	}); err != nil || len(stream) != ops {
		b.Fatalf("decoded %d ops, want %d: %v", len(stream), ops, err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r, err := New(config("")) // a fresh inventory: the stream fills it
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, op := range stream {
			if _, err := r.apply(op, placement.Hosted{}); err != nil {
				b.Fatalf("apply seq %d: %v", op.Seq, err)
			}
		}
		b.StopTimer()
		r.Kill()
		b.StartTimer()
	}
	b.ReportMetric(float64(ops)*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}
