package record

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"testing/quick"
)

// jsonOpLine is the reference encoder: what RecordOp wrote before the
// codec, and still writes for an op the codec declines.
func jsonOpLine(op Op) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(opLine{T: lineOp, Op: op})
	return buf.Bytes(), err
}

// checkEncode holds appendOpLine to its contract on one op: the bytes
// encoding/json writes, or a decline.
func checkEncode(t *testing.T, op Op) (declined bool) {
	t.Helper()
	want, werr := jsonOpLine(op)
	got, ok := appendOpLine([]byte("scratch"), &op)
	if !ok {
		return true
	}
	if werr != nil {
		t.Fatalf("appendOpLine wrote %q for %+v, encoding/json refuses it: %v", got, op, werr)
	}
	if got = got[len("scratch"):]; !bytes.Equal(got, want) {
		t.Fatalf("op %+v:\n codec %s\n  json %s", op, got, want)
	}
	return false
}

// refReader is the reference reader: Reader.Next as it was before the
// codec — a {"t"} probe, then the typed decode, both by encoding/json —
// over lines it splits itself.
type refReader struct {
	rest []byte
	// line numbers the line next read last; it spans [start, end) of
	// the stream.
	line, start, end int
}

func (r *refReader) next() (Entry, error) {
	for len(r.rest) > 0 {
		raw, rest, _ := bytes.Cut(r.rest, []byte("\n"))
		r.start, r.end = r.end, r.end+len(r.rest)-len(rest)
		r.rest = rest
		r.line++
		if raw = bytes.TrimSuffix(raw, []byte("\r")); len(raw) == 0 {
			continue
		}
		var probe struct {
			T string `json:"t"`
		}
		err := json.Unmarshal(raw, &probe)
		var e Entry
		switch {
		case err != nil:
		case probe.T == lineDecision:
			e.Decision = new(Decision)
			err = json.Unmarshal(raw, e.Decision)
		case probe.T == lineSpan:
			e.Span = new(Span)
			err = json.Unmarshal(raw, e.Span)
		case probe.T == lineOp:
			e.Op = new(Op)
			err = json.Unmarshal(raw, e.Op)
		default:
			continue
		}
		if err != nil {
			return Entry{}, fmt.Errorf("record: line %d: %w", r.line, err)
		}
		return e, nil
	}
	r.start = r.end
	return Entry{}, io.EOF
}

// sameEntry compares two entries exactly: scores by bits (DeepEqual
// takes -0 for 0), everything else — nil against empty slices included
// — by DeepEqual.
func sameEntry(a, b Entry) bool {
	if a.Op != nil && b.Op != nil {
		x, y := *a.Op, *b.Op
		if math.Float64bits(x.Score) != math.Float64bits(y.Score) {
			return false
		}
		x.Score, y.Score = 0, 0
		return reflect.DeepEqual(x, y)
	}
	return reflect.DeepEqual(a, b)
}

const testHeader = `{"format":"prvm-decision-record","version":1,"meta":{"kind":"test"}}` + "\n"

// checkDecode holds Reader.Next to the reference reader over body: the
// same entries, the same error text at the same line, the same offset
// for the first undecodable line. It returns how many op lines took the
// encoding/json path.
func checkDecode(t *testing.T, body []byte) int {
	t.Helper()
	stream := append([]byte(testHeader), body...)
	rd, err := NewReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	ref := refReader{rest: stream[len(testHeader):], line: 1, end: len(testHeader)}
	for {
		want, werr := ref.next()
		got, gerr := rd.Next()
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("body %q: Next error %v, reference %v", body, gerr, werr)
		}
		if werr != nil {
			if rd.Offset() != int64(ref.start) {
				t.Fatalf("body %q: Offset %d after %v, the line starts at %d", body, rd.Offset(), gerr, ref.start)
			}
			return rd.SlowLines()
		}
		if !sameEntry(got, want) {
			t.Fatalf("body %q line %d:\n  Next %+v\n   ref %+v", body, ref.line, got, want)
		}
	}
}

// checkRoundTrip reads back, under checkDecode, the line of an op the
// encoder accepted. The decoder may decline it only over an integer of
// 19 digits, which it leaves to encoding/json's overflow check.
func checkRoundTrip(t *testing.T, op Op) {
	t.Helper()
	line, _ := jsonOpLine(op)
	if slow := checkDecode(t, line); slow != 0 && !nineteenDigits.Match(line) {
		t.Fatalf("the decoder declined a line the encoder wrote: %s", line)
	}
}

var nineteenDigits = regexp.MustCompile(`[0-9]{19}`)

// (a) The encoder against encoding/json over ops built by reflection:
// quick.Value fills every field of Op, so one added later is exercised
// here — and fails here — before the codec has heard of it. Each line
// encoding/json writes is then read back through the decoder's check.
func TestOpLineMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	names := []string{"", "place", "release", "m3.medium", "C3", "a b", "x/y:z", "tab\there", `q"uote`, "<html>", "é", "a&b", `back\slash`, "\x7f"}
	scores := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, 9.99e-7, 1e-7, 1.5e-9, 1e21, 9.99e20, 123456789.125, -2.5e-300,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	ints := []int64{0, 1, -1, 9, 10, math.MaxInt32, math.MinInt32, 999999999999999999, 1000000000000000000, math.MaxInt64, math.MinInt64}
	encoded, declined := 0, 0
	for i := 0; i < 20000; i++ {
		v, ok := quick.Value(reflect.TypeOf(Op{}), rng)
		if !ok {
			t.Fatal("quick cannot build an Op")
		}
		// quick's strings are arbitrary runes, its floats and ints huge:
		// most fields are redrawn from the shapes that matter — plain and
		// unplain names, the float form boundaries, the int edges, zeros
		// (omitempty) — and one in eight is left as quick made it.
		for f := 0; f < v.NumField(); f++ {
			fv := v.Field(f)
			switch k := rng.Intn(8); {
			case k == 0:
			case k == 1:
				fv.SetZero()
			case fv.Kind() == reflect.String:
				fv.SetString(names[rng.Intn(len(names))])
			case fv.Kind() == reflect.Float64:
				fv.SetFloat(scores[rng.Intn(len(scores))])
			case fv.CanInt():
				fv.SetInt(ints[rng.Intn(len(ints))])
			}
		}
		op := v.Interface().(Op)
		if len(op.Assign) > 9 {
			op.Assign = op.Assign[:9]
		}
		if checkEncode(t, op) {
			declined++
			continue
		}
		encoded++
		checkRoundTrip(t, op)
	}
	if encoded < 2000 || declined < 2000 {
		t.Fatalf("generator is lopsided: %d encoded, %d declined", encoded, declined)
	}
}

// (c) Valid op lines the Recorder would not have written — reordered
// keys, whitespace, an escape, an unknown field, a line kind from the
// future — decode exactly as they did through encoding/json alone, and
// are counted as having gone that way.
func TestNonCanonicalOpLinesTakeEncodingJSON(t *testing.T) {
	canon := `{"t":"o","seq":3,"kind":"place","vm":7,"vm_type":"m3.large","pm":2,"pm_type":"M3","assign":[{"dim":1,"units":2}],"score":0.25,"opened":true}`
	lines := []string{
		`{"seq":3,"t":"o","kind":"place","pm":2,"vm":7,"vm_type":"m3.large","pm_type":"M3","assign":[{"units":2,"dim":1}],"opened":true,"score":0.25}`,
		`{"t": "o", "seq": 3, "kind": "place", "vm": 7, "vm_type": "m3.large", "pm": 2, "pm_type": "M3", "assign": [{"dim": 1, "units": 2}], "score": 0.25, "opened": true}`,
		strings.Replace(canon, "m3.large", `m\u0033.large`, 1),
		canon[:len(canon)-1] + `,"shard":4}`,
		strings.Replace(canon, `"seq":3`, `"seq":3,"T":"o"`, 1),
	}
	var want Op
	if err := json.Unmarshal([]byte(canon), &want); err != nil {
		t.Fatal(err)
	}
	body := canon + "\n" + `{"t":"x","seq":4,"kind":"place"}` + "\n" + strings.Join(lines, "\r\n") + "\n"
	if slow := checkDecode(t, []byte(body)); slow != len(lines) {
		t.Fatalf("%d lines took the encoding/json path, want %d", slow, len(lines))
	}
	rd, err := NewReader(strings.NewReader(testHeader + body))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= len(lines); i++ {
		e, err := rd.Next()
		if err != nil || e.Op == nil || !reflect.DeepEqual(*e.Op, want) {
			t.Fatalf("line %d: Next = %+v, %v; want op %+v", i, e.Op, err, want)
		}
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("after the last op: %v, want EOF", err)
	}
}

// FuzzOpLine: for any bytes, Reader.Next — the fast decoder, the prefix
// dispatch — agrees with the probe-then-decode reference, entry for
// entry and error for error; for any op, appendOpLine writes
// encoding/json's bytes or declines.
func FuzzOpLine(f *testing.F) {
	f.Add([]byte(`{"t":"o","seq":1,"kind":"place","vm":2,"pm":3}`), "place", int64(77), 0.5)
	f.Fuzz(func(t *testing.T, body []byte, name string, n int64, score float64) {
		checkDecode(t, body)
		op := Op{Seq: n, Kind: name, VM: int(n >> 8), VMType: name[len(name)/2:], PM: int(n&0xff) - 8,
			PMType: name[:len(name)/2], Score: score, Opened: n&1 == 1}
		for i := int64(0); i < n>>1&7; i++ {
			op.Assign = append(op.Assign, OpAssign{Dim: int(n >> (8 * i) & 0xff), Units: int(i - 1)})
		}
		if !checkEncode(t, op) {
			checkRoundTrip(t, op)
		}
	})
}
