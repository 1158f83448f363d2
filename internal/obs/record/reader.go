package record

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Reader iterates one recording: the header, then decisions and spans
// in stream order. Gzip framing is auto-detected from the magic bytes,
// so callers never need to know how the file was written.
type Reader struct {
	hdr     Header
	sc      *bufio.Scanner
	line    int
	closers []io.Closer

	// read counts stream bytes scanned, line ends included; offset is
	// its value before the line the latest Next read. slow counts op
	// lines parseOpLine declined; names is its interning table, and op
	// and assign the storage it decodes into.
	read, offset int64
	slow         int
	names        []string
	op           Op
	assign       []OpAssign
}

// Open reads the recording at path.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("record: %w", err)
	}
	r, err := NewReader(f)
	if err != nil {
		_ = f.Close() // cleanup on the error path; the open error is the story
		return nil, err
	}
	r.closers = append(r.closers, f)
	return r, nil
}

// NewReader reads a recording from src, sniffing gzip framing.
func NewReader(src io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(src, 1<<16)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("record: gzip: %w", err)
		}
		return newReader(gz, gz)
	}
	return newReader(br, nil)
}

func newReader(src io.Reader, c io.Closer) (*Reader, error) {
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	r := &Reader{sc: sc, names: []string{OpPlace, OpRelease, OpRetire}}
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		advance, token, err := bufio.ScanLines(data, atEOF)
		r.read += int64(advance)
		return advance, token, err
	})
	if c != nil {
		r.closers = append(r.closers, c)
	}
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("record: read header: %w", err)
		}
		return nil, fmt.Errorf("record: empty recording")
	}
	r.line = 1
	if err := json.Unmarshal(sc.Bytes(), &r.hdr); err != nil {
		return nil, fmt.Errorf("record: parse header: %w", err)
	}
	if r.hdr.Format != FormatName {
		return nil, fmt.Errorf("record: not a %s file (format %q)", FormatName, r.hdr.Format)
	}
	if r.hdr.Version != FormatVersion {
		return nil, fmt.Errorf("record: unsupported format version %d (reader speaks %d)", r.hdr.Version, FormatVersion)
	}
	return r, nil
}

// Header returns the recording's header.
func (r *Reader) Header() Header {
	if r == nil {
		return Header{}
	}
	return r.hdr
}

// What the Recorder writes ahead of a decision's and a span's fields.
var (
	decisionPrefix = []byte(`{"t":"` + lineDecision + `",`)
	spanPrefix     = []byte(`{"t":"` + lineSpan + `",`)
)

// Entry is one post-header line: exactly one of Decision, Span or Op
// is non-nil.
type Entry struct {
	Decision *Decision
	Span     *Span
	Op       *Op
}

// Next returns the next entry, or io.EOF at the end of the stream. An
// Op, Assign included, is the reader's storage, valid until the next
// call like bufio.Scanner.Bytes: to keep one, copy it and its Assign.
func (r *Reader) Next() (Entry, error) {
	if r == nil {
		return Entry{}, io.EOF
	}
	for {
		r.offset = r.read
		if !r.sc.Scan() {
			if err := r.sc.Err(); err != nil {
				return Entry{}, fmt.Errorf("record: line %d: %w", r.line, err)
			}
			return Entry{}, io.EOF
		}
		r.line++
		raw := r.sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if r.parseOpLine(raw) {
			return Entry{Op: &r.op}, nil
		}
		// The Recorder leads with the discriminator, so a decision or a
		// span needs one parse, not a probe and then one; the decoded
		// "t" confirms the prefix (a later duplicate key would win).
		// What fails here is decided, and reported, by the path below.
		if bytes.HasPrefix(raw, decisionPrefix) {
			var l decisionLine
			if json.Unmarshal(raw, &l) == nil && l.T == lineDecision {
				return Entry{Decision: &l.Decision}, nil
			}
		} else if bytes.HasPrefix(raw, spanPrefix) {
			var l spanLine
			if json.Unmarshal(raw, &l) == nil && l.T == lineSpan {
				return Entry{Span: &l.Span}, nil
			}
		}
		var probe struct {
			T string `json:"t"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return Entry{}, fmt.Errorf("record: line %d: %w", r.line, err)
		}
		switch probe.T {
		case lineDecision:
			var d Decision
			if err := json.Unmarshal(raw, &d); err != nil {
				return Entry{}, fmt.Errorf("record: line %d: %w", r.line, err)
			}
			return Entry{Decision: &d}, nil
		case lineSpan:
			var s Span
			if err := json.Unmarshal(raw, &s); err != nil {
				return Entry{}, fmt.Errorf("record: line %d: %w", r.line, err)
			}
			return Entry{Span: &s}, nil
		case lineOp:
			r.slow++
			r.op = Op{}
			if err := json.Unmarshal(raw, &r.op); err != nil {
				return Entry{}, fmt.Errorf("record: line %d: %w", r.line, err)
			}
			return Entry{Op: &r.op}, nil
		default:
			// Unknown line types are skipped, not fatal: future
			// versions may add record kinds without breaking old
			// readers of the same major format version.
			continue
		}
	}
}

// Offset returns the stream offset (after gzip, when framed) of the
// line the latest Next call read. After Next fails it is the length of
// the prefix that decoded: where a torn tail begins.
func (r *Reader) Offset() int64 {
	if r == nil {
		return 0
	}
	return r.offset
}

// SlowLines returns how many op lines so far were not in the form the
// Recorder writes and went through encoding/json.
func (r *Reader) SlowLines() int {
	if r == nil {
		return 0
	}
	return r.slow
}

// Close releases the underlying file and gzip layers.
func (r *Reader) Close() error {
	if r == nil {
		return nil
	}
	var first error
	for _, c := range r.closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ReadAll loads a whole recording: header, decisions and spans in
// stream order.
func ReadAll(path string) (Header, []Decision, []Span, error) {
	r, err := Open(path)
	if err != nil {
		return Header{}, nil, nil, err
	}
	h, decs, spans, err := drain(r)
	if cerr := r.Close(); err == nil && cerr != nil {
		err = cerr // a close failure can mean a truncated gzip stream
	}
	return h, decs, spans, err
}

// ReadAllFrom is ReadAll over an arbitrary stream.
func ReadAllFrom(src io.Reader) (Header, []Decision, []Span, error) {
	r, err := NewReader(src)
	if err != nil {
		return Header{}, nil, nil, err
	}
	h, decs, spans, err := drain(r)
	if cerr := r.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return h, decs, spans, err
}

func drain(r *Reader) (Header, []Decision, []Span, error) {
	var (
		ds []Decision
		ss []Span
	)
	for {
		e, err := r.Next()
		if err == io.EOF {
			return r.Header(), ds, ss, nil
		}
		if err != nil {
			return r.Header(), ds, ss, err
		}
		if e.Decision != nil {
			ds = append(ds, *e.Decision)
		} else if e.Span != nil {
			ss = append(ss, *e.Span)
		}
	}
}
