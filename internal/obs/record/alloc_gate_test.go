//go:build !race

package record

// The op-line decoder's allocation gate, excluded under -race because
// the race runtime instruments allocations and skews AllocsPerRun.

import (
	"bytes"
	"testing"
)

// A canonical op line through Next allocates nothing once the reader
// has seen its names: the op and its assignment are decoded into the
// reader's own storage, and kinds and type names are interned without
// a map.
func TestOpLineDecodeAllocs(t *testing.T) {
	var buf bytes.Buffer
	rec, err := NewWriter(&buf, RunMeta{Kind: "test"})
	if err != nil {
		t.Fatal(err)
	}
	const lines = 400
	types := []string{"m3.medium", "c3.large", "m3.2xlarge"}
	for i := 0; i < lines; i++ {
		op := Op{Kind: OpPlace, VM: i, VMType: types[i%len(types)], PM: i % 9, PMType: "M3", Score: 0.5 / float64(i+1),
			Assign: []OpAssign{{Dim: 1, Units: 2}, {Dim: 4, Units: 1}, {Dim: 7, Units: i % 5}}}
		if i%4 == 3 {
			op = Op{Kind: OpRelease, VM: i - 3, VMType: types[(i-3)%len(types)], PM: (i - 3) % 9}
		}
		rec.RecordOp(op)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // warm-up: every name seen, the scratch grown
		if e, err := rd.Next(); err != nil || e.Op == nil {
			t.Fatalf("Next = %+v, %v", e, err)
		}
	}
	allocs := testing.AllocsPerRun(lines-10, func() {
		if e, err := rd.Next(); err != nil || e.Op == nil {
			t.Fatalf("Next = %+v, %v", e, err)
		}
	})
	if allocs != 0 || rd.SlowLines() != 0 {
		t.Fatalf("a canonical op line allocates %.2f times (%d slow lines), want 0", allocs, rd.SlowLines())
	}
}
