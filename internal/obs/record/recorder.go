package record

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
)

// Recorder appends decisions and spans to one recording, assigning the
// recording-wide sequence numbers. It is safe for concurrent use:
// sequence assignment and the write happen under one lock, so the
// output stream is always strictly seq-ordered with no gaps, whatever
// the caller interleaving.
//
// A nil *Recorder is the disabled state — every method is a no-op
// branch — so instrumented layers hold the pointer unconditionally,
// exactly like the internal/obs instruments.
type Recorder struct {
	mu  sync.Mutex
	seq int64
	err error

	// JSONL sink (nil in collector mode).
	enc    *json.Encoder
	bw     *bufio.Writer
	gz     *gzip.Writer
	closer io.Closer
	line   []byte // appendOpLine's scratch

	// Collector sink (replay verification, tests).
	collect   bool
	decisions []Decision
	spans     []Span
	ops       []Op

	ndec, nspan, nop int64
}

// decisionLine / spanLine add the "t" discriminator to a record
// without duplicating the payload fields.
type decisionLine struct {
	T string `json:"t"`
	Decision
}

type spanLine struct {
	T string `json:"t"`
	Span
}

// NewWriter starts a recording streamed as JSON lines to w, writing
// the versioned header immediately.
func NewWriter(w io.Writer, meta RunMeta) (*Recorder, error) {
	r := &Recorder{}
	bw := bufio.NewWriterSize(w, 1<<16)
	r.bw = bw
	r.enc = json.NewEncoder(bw)
	if err := r.enc.Encode(Header{Format: FormatName, Version: FormatVersion, Meta: meta}); err != nil {
		return nil, fmt.Errorf("record: write header: %w", err)
	}
	return r, nil
}

// Create starts a recording in a new file at path. A ".gz" suffix
// selects gzip framing: the JSONL stream is written through a
// compress/gzip writer, and Close flushes both layers.
func Create(path string, meta RunMeta) (*Recorder, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("record: %w", err)
	}
	var w io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(f)
		w = gz
	}
	r, err := NewWriter(w, meta)
	if err != nil {
		_ = f.Close() // cleanup on the error path; the header error is the story
		return nil, err
	}
	r.gz = gz
	r.closer = f
	return r, nil
}

// NewCollector starts an in-memory recording — the replay driver's
// sink, and the cheapest way to capture a decision stream in tests.
func NewCollector() *Recorder {
	return &Recorder{collect: true}
}

// Active reports whether recording is enabled — instrumented hot paths
// use it to skip assembling candidate sets and phase timings entirely.
func (r *Recorder) Active() bool { return r != nil }

// RecordDecision appends d, overwriting d.Seq with the next sequence
// number. The argument's slices are not retained: callers may reuse
// their Candidates/TiedPMs scratch buffers.
func (r *Recorder) RecordDecision(d Decision) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	d.Seq = r.seq
	r.seq++
	r.ndec++
	if r.collect {
		d.Candidates = append([]Candidate(nil), d.Candidates...)
		d.TiedPMs = append([]int(nil), d.TiedPMs...)
		if d.Phases != nil {
			ph := *d.Phases
			d.Phases = &ph
		}
		r.decisions = append(r.decisions, d)
		return
	}
	if r.err != nil {
		return
	}
	if err := r.enc.Encode(decisionLine{T: lineDecision, Decision: d}); err != nil {
		r.err = fmt.Errorf("record: write decision: %w", err)
	}
}

// RecordSpan appends a named span timing of ns nanoseconds. labels may
// be nil; it is not retained in JSONL mode but is in collector mode,
// so callers must not mutate it afterwards.
func (r *Recorder) RecordSpan(name string, ns int64, labels map[string]string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Span{Seq: r.seq, Name: name, Ns: ns, Labels: labels}
	r.seq++
	r.nspan++
	if r.collect {
		r.spans = append(r.spans, s)
		return
	}
	if r.err != nil {
		return
	}
	if err := r.enc.Encode(spanLine{T: lineSpan, Span: s}); err != nil {
		r.err = fmt.Errorf("record: write span: %w", err)
	}
}

// Decisions returns the collected decisions (collector mode; nil
// otherwise). The slice is shared — callers must not modify it.
func (r *Recorder) Decisions() []Decision {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.decisions
}

// Spans returns the collected spans (collector mode; nil otherwise).
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans
}

// Counts returns how many decisions and spans were recorded.
func (r *Recorder) Counts() (decisions, spans int64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ndec, r.nspan
}

// NextSeq returns the sequence number the next recorded entry will be
// assigned. The serve daemon reads it under quiesced shards to stamp a
// snapshot cut: every op with a smaller seq is reflected in the
// snapshot, every later one must be replayed on top.
func (r *Recorder) NextSeq() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// SetNextSeq moves the sequence counter so the next entry is assigned
// seq. It exists for WAL segment continuation — a rotated segment
// starts numbering where its predecessor stopped, keeping the
// recording-wide seq order global across segment files — and must only
// be called before the first entry is recorded.
func (r *Recorder) SetNextSeq(seq int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq = seq
}

// Flush pushes all buffered entries to the underlying writer. A
// recorder buffers aggressively (64 KiB) for batch throughput; callers
// with a durability barrier — the serve daemon acknowledging a batch
// of placements — flush once per batch rather than per entry.
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.flushLocked()
}

func (r *Recorder) flushLocked() error {
	if r.bw != nil {
		if err := r.bw.Flush(); err != nil && r.err == nil {
			r.err = fmt.Errorf("record: flush: %w", err)
		}
	}
	if r.gz != nil {
		if err := r.gz.Flush(); err != nil && r.err == nil {
			r.err = fmt.Errorf("record: flush gzip: %w", err)
		}
	}
	return r.err
}

// Sync flushes and then forces the bytes to stable storage when the
// recorder owns a file (Create); on a plain writer it degrades to
// Flush. This is the fsync half of the WAL durability contract —
// without it a flush only reaches the OS page cache.
func (r *Recorder) Sync() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.flushLocked(); err != nil {
		return err
	}
	if f, ok := r.closer.(*os.File); ok {
		if err := f.Sync(); err != nil && r.err == nil {
			r.err = fmt.Errorf("record: sync: %w", err)
		}
	}
	return r.err
}

// Err returns the first write error, if any.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Close flushes the buffered stream, closes the gzip layer and the
// underlying file (when Create opened one), and returns the first
// error seen.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.bw != nil {
		if err := r.bw.Flush(); err != nil && r.err == nil {
			r.err = fmt.Errorf("record: flush: %w", err)
		}
	}
	if r.gz != nil {
		if err := r.gz.Close(); err != nil && r.err == nil {
			r.err = fmt.Errorf("record: close gzip: %w", err)
		}
	}
	if r.closer != nil {
		if err := r.closer.Close(); err != nil && r.err == nil {
			r.err = fmt.Errorf("record: close: %w", err)
		}
	}
	return r.err
}
