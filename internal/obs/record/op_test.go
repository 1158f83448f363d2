package record

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// Ops round-trip through the JSONL stream with seq numbers shared with
// decisions and spans, and readers surface them as Entry.Op.
func TestOpRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	r, err := NewWriter(&buf, RunMeta{Kind: "serve-wal"})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	seq0 := r.RecordOp(Op{Kind: OpPlace, VM: 7, VMType: "m3.large", PM: 3, PMType: "M3",
		Assign: []OpAssign{{Dim: 0, Units: 1}, {Dim: 2, Units: 1}}, Score: 0.5, Opened: true})
	r.RecordSpan("serve.batch", 123, nil)
	seq2 := r.RecordOp(Op{Kind: OpRelease, VM: 7, PM: 3})
	if seq0 != 0 || seq2 != 2 {
		t.Fatalf("op seqs = %d, %d; want 0, 2", seq0, seq2)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	var ops []Op
	for {
		e, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if e.Op != nil {
			op := *e.Op
			op.Assign = slices.Clone(op.Assign) // Next's op lives until its next call
			ops = append(ops, op)
		}
	}
	if len(ops) != 2 {
		t.Fatalf("got %d ops, want 2", len(ops))
	}
	if ops[0].Kind != OpPlace || ops[0].VM != 7 || ops[0].PM != 3 || !ops[0].Opened {
		t.Errorf("place op mangled: %+v", ops[0])
	}
	if len(ops[0].Assign) != 2 || ops[0].Assign[1] != (OpAssign{Dim: 2, Units: 1}) {
		t.Errorf("assign mangled: %+v", ops[0].Assign)
	}
	if ops[1].Kind != OpRelease || ops[1].Seq != 2 {
		t.Errorf("release op mangled: %+v", ops[1])
	}
}

// A pre-op reader (simulated by a stream holding an unknown line type)
// must skip op lines rather than fail — the same forward-compatibility
// the reader grants all unknown "t" values.
func TestOpUnknownLineSkipped(t *testing.T) {
	var buf bytes.Buffer
	r, err := NewWriter(&buf, RunMeta{Kind: "serve-wal"})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	r.RecordOp(Op{Kind: OpPlace, VM: 1, PM: 0})
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	stream := bytes.Replace(buf.Bytes(), []byte(`{"t":"o"`), []byte(`{"t":"zz"`), 1)
	rd, err := NewReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("Next on unknown-only stream = %v, want EOF", err)
	}
}

// SetNextSeq continues the recording-wide sequence across WAL segment
// files, and Sync survives on a file-backed recorder.
func TestOpSegmentContinuation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal-1.jsonl")
	r, err := Create(path, RunMeta{Kind: "serve-wal"})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	r.SetNextSeq(41)
	if got := r.NextSeq(); got != 41 {
		t.Fatalf("NextSeq = %d, want 41", got)
	}
	if seq := r.RecordOp(Op{Kind: OpPlace, VM: 9, PM: 1}); seq != 41 {
		t.Fatalf("continued seq = %d, want 41", seq)
	}
	if err := r.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// The synced bytes are readable before Close — the crash-recovery
	// property the WAL depends on.
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		t.Fatalf("read synced wal: %v (%d bytes)", err, len(data))
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rd, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer func() { _ = rd.Close() }()
	e, err := rd.Next()
	if err != nil || e.Op == nil {
		t.Fatalf("Next = %+v, %v; want op", e, err)
	}
	if e.Op.Seq != 41 {
		t.Fatalf("op seq = %d, want 41", e.Op.Seq)
	}
}

// Collector mode retains ops with copied assignment slices, so callers
// may reuse scratch buffers (the RecordDecision contract extends to
// ops).
func TestOpCollector(t *testing.T) {
	r := NewCollector()
	scratch := []OpAssign{{Dim: 1, Units: 2}}
	r.RecordOp(Op{Kind: OpPlace, VM: 1, PM: 0, Assign: scratch})
	scratch[0] = OpAssign{Dim: 9, Units: 9}
	ops := r.Ops()
	if len(ops) != 1 || ops[0].Assign[0] != (OpAssign{Dim: 1, Units: 2}) {
		t.Fatalf("collector retained aliased scratch: %+v", ops)
	}
}
