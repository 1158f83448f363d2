package record

import (
	"bytes"
	"math"
	"strconv"
)

// The op-line codec (DESIGN.md §11 "Format"). A WAL is op lines and
// nothing else, and reflecting over one costs encoding/json ~10x what
// applying it costs. appendOpLine writes and parseOpLine reads exactly
// one form — encoding/json's bytes for opLine{T: "o", Op} when every
// string is plain:
//
//	{"t":"o","seq":N,"kind":"S","vm":N[,"vm_type":"S"],"pm":N
//	 [,"pm_type":"S"][,"assign":[{"dim":N,"units":N},...]]
//	 [,"score":F][,"opened":true]}
//
// N: an integer without leading zeros, "-0" or a 19th digit. S:
// printable ASCII without " \ < > &. F: a JSON number ParseFloat takes.
// The codec recognises what it wrote and encoding/json decides
// everything else: anything outside that form is declined, not guessed.

// plain reports whether encoding/json writes c inside a string as
// itself, and reads it back as itself.
func plain(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// JSONPlain reports whether encoding/json writes every byte of s,
// inside a string, as itself, and reads it back as itself.
func JSONPlain(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plain(s[i]) {
			return false
		}
	}
	return true
}

// lit appends s to the recorder's line scratch.
//
//prvm:hotpath
func lit(b []byte, s string) []byte {
	//prvmlint:allow hotalloc — appends into the Recorder's reused scratch; steady state never grows it
	return append(b, s...)
}

// appendOpLine appends op's line, newline included. It declines
// (ok false, b's contents undefined) an op whose JSON form needs an
// escape or that encoding/json refuses to write.
//
//prvm:hotpath
func appendOpLine(b []byte, op *Op) (_ []byte, ok bool) {
	if !JSONPlain(op.Kind) || !JSONPlain(op.VMType) || !JSONPlain(op.PMType) ||
		math.IsInf(op.Score, 0) || math.IsNaN(op.Score) {
		return b, false
	}
	b = strconv.AppendInt(lit(b, `{"t":"o","seq":`), op.Seq, 10)
	b = lit(lit(lit(b, `,"kind":"`), op.Kind), `"`)
	b = strconv.AppendInt(lit(b, `,"vm":`), int64(op.VM), 10)
	if op.VMType != "" {
		b = lit(lit(lit(b, `,"vm_type":"`), op.VMType), `"`)
	}
	b = strconv.AppendInt(lit(b, `,"pm":`), int64(op.PM), 10)
	if op.PMType != "" {
		b = lit(lit(lit(b, `,"pm_type":"`), op.PMType), `"`)
	}
	b = AppendJSONAssign(b, op.Assign)
	if op.Score > 0 || op.Score < 0 { // omitempty drops both zeros
		b = AppendJSONFloat(lit(b, `,"score":`), op.Score)
	}
	if op.Opened {
		b = lit(b, `,"opened":true`)
	}
	return lit(b, "}\n"), true
}

// AppendJSONAssign appends an "assign" field holding a as encoding/json
// writes it after another field — nothing when a is empty (omitempty).
//
//prvm:hotpath
func AppendJSONAssign(b []byte, a []OpAssign) []byte {
	for i, u := range a {
		sep := `,{"dim":`
		if i == 0 {
			sep = `,"assign":[{"dim":`
		}
		b = strconv.AppendInt(lit(b, sep), int64(u.Dim), 10)
		b = lit(strconv.AppendInt(lit(b, `,"units":`), int64(u.Units), 10), `}`)
	}
	if len(a) > 0 {
		b = lit(b, `]`)
	}
	return b
}

// AppendJSONFloat appends the finite f in the form encoding/json
// writes a float64 in: ES6 number form, exponent outside [1e-6, 1e21)
// for a nonzero f, "e-07" cleaned up to "e-7".
//
//prvm:hotpath
func AppendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs > 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// opParser is a cursor over one line; ok goes false at the first byte
// outside the canonical form and every later step is a no-op.
type opParser struct {
	b  []byte
	ok bool
}

// has consumes s when the line continues with it; want requires it.
func (p *opParser) has(s string) bool {
	if !p.ok || len(p.b) < len(s) || string(p.b[:len(s)]) != s {
		return false
	}
	p.b = p.b[len(s):]
	return true
}

func (p *opParser) want(s string) { p.ok = p.has(s) }

// digits returns the length of the digit run at p.b[i:].
func (p *opParser) digits(i int) int {
	n := 0
	for i+n < len(p.b) && p.b[i+n]-'0' <= 9 {
		n++
	}
	return n
}

// integer consumes a canonical integer that fits bits bits.
func (p *opParser) integer(bits int) int64 {
	b, neg := p.b, len(p.b) > 0 && p.b[0] == '-'
	if neg {
		b = b[1:]
	}
	var v int64
	n := 0
	for ; n < len(b) && b[n]-'0' <= 9; n++ {
		v = v*10 + int64(b[n]-'0') // wraps past 18 digits, which are declined
	}
	if p.ok = p.ok && n > 0 && n <= 18 && (b[0] != '0' || n == 1 && !neg); !p.ok {
		return 0
	}
	if neg {
		v = -v
	}
	p.b = b[n:]
	p.ok = bits == 64 || v == int64(int32(v))
	return v
}

// number consumes a JSON number and converts it the way encoding/json
// converts one into a float64 field.
func (p *opParser) number() float64 {
	i := 0
	if len(p.b) > 0 && p.b[0] == '-' {
		i = 1
	}
	n := p.digits(i)
	p.ok = p.ok && n > 0 && (p.b[i] != '0' || n == 1)
	if i += n; i < len(p.b) && p.b[i] == '.' {
		n = p.digits(i + 1)
		p.ok, i = p.ok && n > 0, i+1+n
	}
	if i < len(p.b) && p.b[i]|0x20 == 'e' {
		if i++; i < len(p.b) && (p.b[i] == '+' || p.b[i] == '-') {
			i++
		}
		n = p.digits(i)
		p.ok, i = p.ok && n > 0, i+n
	}
	if !p.ok {
		return 0
	}
	f, err := strconv.ParseFloat(string(p.b[:i]), 64)
	p.b, p.ok = p.b[i:], err == nil
	return f
}

// maxNames bounds a reader's name table at more names than any catalog
// has; over a catalog's handful a linear scan beats hashing the name.
const maxNames = 32

// str consumes a plain string through its closing quote. Names repeat
// line after line, so the op kinds and the catalog's few type names are
// kept, once each and checked once, in a small table: a name seen
// before costs no allocation.
func (p *opParser) str(names *[]string) string {
	i := bytes.IndexByte(p.b, '"')
	if p.ok = p.ok && i >= 0; !p.ok {
		return ""
	}
	name := p.b[:i]
	p.b = p.b[i+1:]
	for _, s := range *names {
		if s == string(name) {
			return s
		}
	}
	for _, c := range name {
		if p.ok = plain(c); !p.ok {
			return ""
		}
	}
	s := string(name)
	if len(*names) < maxNames {
		*names = append(*names, s)
	}
	return s
}

// parseOpLine decodes raw into r.op when it is in the canonical form —
// then r.op is what json.Unmarshal(raw, &op) yields, its assignment in
// r's scratch — and declines (false) otherwise, leaving r.op undefined.
func (r *Reader) parseOpLine(raw []byte) bool {
	p := opParser{b: raw, ok: true}
	if !p.has(`{"t":"o","seq":`) {
		return false // not an op line: do not build one
	}
	op := &r.op
	*op = Op{Seq: p.integer(64)}
	p.want(`,"kind":"`)
	op.Kind = p.str(&r.names)
	p.want(`,"vm":`)
	op.VM = int(p.integer(strconv.IntSize))
	if p.has(`,"vm_type":"`) {
		op.VMType = p.str(&r.names)
	}
	p.want(`,"pm":`)
	op.PM = int(p.integer(strconv.IntSize))
	if p.has(`,"pm_type":"`) {
		op.PMType = p.str(&r.names)
	}
	if p.has(`,"assign":[`) {
		r.assign = r.assign[:0]
		for more := true; more && p.ok; more = p.has(`},`) {
			p.want(`{"dim":`)
			dim := p.integer(strconv.IntSize)
			p.want(`,"units":`)
			r.assign = append(r.assign, OpAssign{Dim: int(dim), Units: int(p.integer(strconv.IntSize))})
		}
		p.want(`}]`)
		op.Assign = r.assign
	}
	if p.has(`,"score":`) {
		op.Score = p.number()
	}
	op.Opened = p.has(`,"opened":true`)
	p.want(`}`)
	return p.ok && len(p.b) == 0
}
