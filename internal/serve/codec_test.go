package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pagerankvm/internal/obs/record"
)

// The body codec writes what json.NewEncoder(w).Encode writes: over
// seeded random replies and the edge cases of the float form, the
// bytes agree, and a reply is declined exactly when encoding/json would
// escape its type name or refuse its score.
func TestBodyCodecMatchesEncodingJSON(t *testing.T) {
	encode := func(v any) ([]byte, bool) {
		var buf bytes.Buffer
		err := json.NewEncoder(&buf).Encode(v)
		return buf.Bytes(), err == nil
	}
	checkPlace := func(v PlaceResponse) {
		t.Helper()
		want, wantOK := encode(v)
		got, ok := appendPlaceResponse(nil, &v)
		plain := record.JSONPlain(v.PMType)
		if finite := !math.IsNaN(v.Score) && !math.IsInf(v.Score, 0); ok != (plain && finite) || ok && !wantOK {
			t.Fatalf("%+v: codec ok=%v, encoding/json ok=%v, plain=%v", v, ok, wantOK, plain)
		}
		if ok && !bytes.Equal(got, want) {
			t.Fatalf("%+v:\ncodec        %s\nencoding/json %s", v, got, want)
		}
	}
	checkRelease := func(v ReleaseResponse) {
		t.Helper()
		want, _ := encode(v)
		if got := appendReleaseResponse(nil, &v); !bytes.Equal(got, want) {
			t.Fatalf("%+v:\ncodec        %s\nencoding/json %s", v, got, want)
		}
	}

	assign := []record.OpAssign{{Dim: 2, Units: 1}, {Dim: 11, Units: 5}}
	for _, score := range []float64{0, math.Copysign(0, -1), -0.25, 1e-7, 1e21, 5e-324, math.MaxFloat64, 0.0040336958171470535} {
		checkPlace(PlaceResponse{VM: 7, PM: 3, PMType: "M3", Score: score, Seq: 12, Assign: assign})
	}
	checkPlace(PlaceResponse{VM: 7, PM: 3, Duplicate: true, Seq: -1})
	checkPlace(PlaceResponse{VM: 7, PM: 3, Score: 0.5, Opened: true, Seq: 4, Assign: assign})
	checkPlace(PlaceResponse{VM: 7, PM: 3, PMType: "", Seq: 4})

	rng := rand.New(rand.NewSource(1))
	ints := func() int {
		switch rng.Intn(4) {
		case 0:
			return rng.Intn(10)
		case 1:
			return -rng.Intn(1000)
		default:
			return int(rng.Int63() >> rng.Intn(63))
		}
	}
	types := []string{"", "M3", "C3", "m3.large", "a<b", "a&b", "é", `q"`, "tab\t", "\x7f"}
	for i := 0; i < 10_000; i++ {
		v := PlaceResponse{
			VM: ints(), PM: ints(), PMType: types[rng.Intn(len(types))],
			Opened: rng.Intn(2) == 0, Duplicate: rng.Intn(2) == 0, Seq: int64(ints()),
		}
		switch rng.Intn(4) {
		case 0:
			v.Score = rng.Float64()
		case 1:
			v.Score = math.Float64frombits(rng.Uint64()) // NaN and ±Inf included
		case 2:
			v.Score = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		}
		for n := rng.Intn(9); n > 0; n-- {
			v.Assign = append(v.Assign, record.OpAssign{Dim: rng.Intn(20), Units: ints()})
		}
		checkPlace(v)
		checkRelease(ReleaseResponse{VM: ints(), PM: ints(), Seq: int64(ints())})
	}
}

// bodyCase is one request body outside the canonical form and what the
// handler answered before the codec existed (the bodies went through
// decodeBody alone).
type bodyCase struct {
	name, path, body string
	code             int
	reply            string
}

// nonCanonicalBodies covers each class the fast path declines. The
// replies are the previous implementation's, byte for byte: the codec
// must not change what any of them gets.
var nonCanonicalBodies = []bodyCase{
	{name: "place/whitespace", path: "/v1/place", body: `{"vm": 1, "type": "m3.large"}`,
		code: 200, reply: "{\"vm\":1,\"pm\":1,\"pm_type\":\"C3\",\"score\":0,\"opened\":true,\"seq\":0,\"assign\":[{\"dim\":0,\"units\":1},{\"dim\":1,\"units\":1},{\"dim\":9,\"units\":4},{\"dim\":8,\"units\":2}]}\n"},
	{name: "place/key-order", path: "/v1/place", body: `{"type":"m3.large","vm":1}`,
		code: 200, reply: "{\"vm\":1,\"pm\":1,\"pm_type\":\"C3\",\"score\":0,\"opened\":true,\"seq\":0,\"assign\":[{\"dim\":0,\"units\":1},{\"dim\":1,\"units\":1},{\"dim\":9,\"units\":4},{\"dim\":8,\"units\":2}]}\n"},
	{name: "place/key-case", path: "/v1/place", body: `{"VM":1,"Type":"m3.large"}`,
		code: 200, reply: "{\"vm\":1,\"pm\":1,\"pm_type\":\"C3\",\"score\":0,\"opened\":true,\"seq\":0,\"assign\":[{\"dim\":0,\"units\":1},{\"dim\":1,\"units\":1},{\"dim\":9,\"units\":4},{\"dim\":8,\"units\":2}]}\n"},
	{name: "place/unknown-field", path: "/v1/place", body: `{"vm":1,"type":"m3.large","x":1}`,
		code: 400, reply: "{\"code\":\"bad_request\",\"error\":\"decode body: json: unknown field \\\"x\\\"\"}\n"},
	{name: "place/escape", path: "/v1/place", body: `{"vm":1,"type":"m3\u002elarge"}`,
		code: 200, reply: "{\"vm\":1,\"pm\":1,\"pm_type\":\"C3\",\"score\":0,\"opened\":true,\"seq\":0,\"assign\":[{\"dim\":0,\"units\":1},{\"dim\":1,\"units\":1},{\"dim\":9,\"units\":4},{\"dim\":8,\"units\":2}]}\n"},
	{name: "place/trailing-bytes", path: "/v1/place", body: `{"vm":1,"type":"m3.large"}xyz`,
		code: 200, reply: "{\"vm\":1,\"pm\":1,\"pm_type\":\"C3\",\"score\":0,\"opened\":true,\"seq\":0,\"assign\":[{\"dim\":0,\"units\":1},{\"dim\":1,\"units\":1},{\"dim\":9,\"units\":4},{\"dim\":8,\"units\":2}]}\n"},
	{name: "place/oversized", path: "/v1/place", body: `{"vm":1,"type":"m3.large"` + strings.Repeat(" ", 600) + `}`,
		code: 200, reply: "{\"vm\":1,\"pm\":1,\"pm_type\":\"C3\",\"score\":0,\"opened\":true,\"seq\":0,\"assign\":[{\"dim\":0,\"units\":1},{\"dim\":1,\"units\":1},{\"dim\":9,\"units\":4},{\"dim\":8,\"units\":2}]}\n"},
	{name: "place/oversized-unknown-field", path: "/v1/place", body: `{"vm":1,"type":"m3.large","pad":"` + strings.Repeat("a", 600) + `"}`,
		code: 400, reply: "{\"code\":\"bad_request\",\"error\":\"decode body: json: unknown field \\\"pad\\\"\"}\n"},
	{name: "place/19-digits", path: "/v1/place", body: `{"vm":1234567890123456789,"type":"m3.large"}`,
		code: 200, reply: "{\"vm\":1234567890123456789,\"pm\":1,\"pm_type\":\"C3\",\"score\":0,\"opened\":true,\"seq\":0,\"assign\":[{\"dim\":0,\"units\":1},{\"dim\":1,\"units\":1},{\"dim\":9,\"units\":4},{\"dim\":8,\"units\":2}]}\n"},
	{name: "place/20-digits", path: "/v1/place", body: `{"vm":12345678901234567890,"type":"m3.large"}`,
		code: 400, reply: "{\"code\":\"bad_request\",\"error\":\"decode body: json: cannot unmarshal number 12345678901234567890 into Go struct field PlaceRequest.vm of type int\"}\n"},
	{name: "place/leading-zero", path: "/v1/place", body: `{"vm":01,"type":"m3.large"}`,
		code: 400, reply: "{\"code\":\"bad_request\",\"error\":\"decode body: invalid character '1' after object key:value pair\"}\n"},
	{name: "place/minus-zero", path: "/v1/place", body: `{"vm":-0,"type":"m3.large"}`,
		code: 200, reply: "{\"vm\":0,\"pm\":0,\"pm_type\":\"M3\",\"score\":0,\"opened\":true,\"seq\":0,\"assign\":[{\"dim\":0,\"units\":1},{\"dim\":1,\"units\":1},{\"dim\":9,\"units\":4},{\"dim\":8,\"units\":2}]}\n"},
	{name: "place/fraction", path: "/v1/place", body: `{"vm":1.5,"type":"m3.large"}`,
		code: 400, reply: "{\"code\":\"bad_request\",\"error\":\"decode body: json: cannot unmarshal number 1.5 into Go struct field PlaceRequest.vm of type int\"}\n"},
	{name: "place/null", path: "/v1/place", body: `{"vm":null,"type":"m3.large"}`,
		code: 200, reply: "{\"vm\":0,\"pm\":0,\"pm_type\":\"M3\",\"score\":0,\"opened\":true,\"seq\":0,\"assign\":[{\"dim\":0,\"units\":1},{\"dim\":1,\"units\":1},{\"dim\":9,\"units\":4},{\"dim\":8,\"units\":2}]}\n"},
	{name: "place/html-byte", path: "/v1/place", body: `{"vm":1,"type":"m3<large"}`,
		code: 400, reply: "{\"code\":\"unknown_type\",\"error\":\"experiments: unknown vm type \\\"m3\\u003clarge\\\"\"}\n"},
	{name: "place/empty", path: "/v1/place", body: ``,
		code: 400, reply: "{\"code\":\"bad_request\",\"error\":\"decode body: EOF\"}\n"},
	{name: "place/not-json", path: "/v1/place", body: `nope`,
		code: 400, reply: "{\"code\":\"bad_request\",\"error\":\"decode body: invalid character 'o' in literal null (expecting 'u')\"}\n"},
	{name: "release/whitespace", path: "/v1/release", body: `{ "vm" : 1 }`,
		code: 200, reply: "{\"vm\":1,\"pm\":1,\"seq\":1}\n"},
	{name: "release/key-case", path: "/v1/release", body: `{"VM":1}`,
		code: 200, reply: "{\"vm\":1,\"pm\":1,\"seq\":1}\n"},
	{name: "release/escape", path: "/v1/release", body: `{"v\u006d":1}`,
		code: 200, reply: "{\"vm\":1,\"pm\":1,\"seq\":1}\n"},
	{name: "release/unknown-field", path: "/v1/release", body: `{"vm":1,"type":"m3.large"}`,
		code: 400, reply: "{\"code\":\"bad_request\",\"error\":\"decode body: json: unknown field \\\"type\\\"\"}\n"},
	{name: "release/trailing-bytes", path: "/v1/release", body: "{\"vm\":1}\n\n",
		code: 200, reply: "{\"vm\":1,\"pm\":1,\"seq\":1}\n"},
	{name: "release/oversized", path: "/v1/release", body: `{"vm":1` + strings.Repeat(" ", 600) + `}`,
		code: 200, reply: "{\"vm\":1,\"pm\":1,\"seq\":1}\n"},
	{name: "release/19-digits", path: "/v1/release", body: `{"vm":1234567890123456789}`,
		code: 404, reply: "{\"code\":\"not_placed\",\"error\":\"serve: vm 1234567890123456789 not placed\"}\n"},
	{name: "release/20-digits", path: "/v1/release", body: `{"vm":12345678901234567890}`,
		code: 400, reply: "{\"code\":\"bad_request\",\"error\":\"decode body: json: cannot unmarshal number 12345678901234567890 into Go struct field ReleaseRequest.vm of type int\"}\n"},
	{name: "release/minus-zero", path: "/v1/release", body: `{"vm":-0}`,
		code: 404, reply: "{\"code\":\"not_placed\",\"error\":\"serve: vm 0 not placed\"}\n"},
	{name: "release/empty", path: "/v1/release", body: ``,
		code: 400, reply: "{\"code\":\"bad_request\",\"error\":\"decode body: EOF\"}\n"},
}

// Each body outside the canonical form gets the status and the bytes it
// got when encoding/json read every body. Releases run against a server
// where vm 1 is placed.
func TestNonCanonicalBodiesAnswerAsBefore(t *testing.T) {
	for _, c := range nonCanonicalBodies {
		t.Run(c.name, func(t *testing.T) {
			code, reply := bodyCaseReply(t, c)
			if code != c.code || reply != c.reply {
				t.Errorf("%s %q: got %d %q, want %d %q", c.path, c.body, code, reply, c.code, c.reply)
			}
		})
	}
}

// bodyCaseReply posts c to a fresh in-memory server (vm 1 placed first
// for a release) and returns the status and body.
func bodyCaseReply(t *testing.T, c bodyCase) (int, string) {
	s := newTestServer(t, "", 2, 4)
	defer func() { _ = s.Close() }()
	post := func(path, body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return w
	}
	if c.path == "/v1/release" {
		if w := post("/v1/place", `{"vm":1,"type":"m3.large"}`); w.Code != http.StatusOK {
			t.Fatalf("place vm 1: %d %s", w.Code, w.Body)
		}
	}
	w := post(c.path, c.body)
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
	return w.Code, w.Body.String()
}

// checkVMBody holds the decode half of the codec to encoding/json on
// one body: the fast path declines it or yields what a json.Decoder
// with DisallowUnknownFields yields, and the handler's read — fast path,
// else the replay into decodeBody — ends as decodeBody alone ends on
// the same bytes: the same request, or the same 400 reply.
func checkVMBody(t *testing.T, body []byte, withType bool) {
	decode := func(r io.Reader) (PlaceRequest, *httptest.ResponseRecorder, bool) {
		w := httptest.NewRecorder()
		if withType {
			var req PlaceRequest
			ok := decodeBody(w, r, &req)
			return req, w, ok
		}
		var req ReleaseRequest
		ok := decodeBody(w, r, &req)
		return PlaceRequest{VM: req.VM}, w, ok
	}
	want, wantW, wantOK := decode(bytes.NewReader(body))
	if vm, typ, ok := parseVMBody(body, withType); ok {
		if !wantOK || (PlaceRequest{VM: vm, Type: typ}) != want {
			t.Fatalf("%q: fast path read vm %d type %q; encoding/json %+v ok=%v", body, vm, typ, want, wantOK)
		}
	}
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	vm, typ, ok := readVMBody(w, r, make([]byte, 0, 64), withType)
	if ok != wantOK || ok && (PlaceRequest{VM: vm, Type: typ}) != want ||
		w.Code != wantW.Code || w.Body.String() != wantW.Body.String() {
		t.Fatalf("%q: handler read (%d, %q, %v) %d %s; decodeBody %+v %v %d %s",
			body, vm, typ, ok, w.Code, w.Body, want, wantOK, wantW.Code, wantW.Body)
	}
}

// vmBodySeeds are the corpus both fuzz targets start from.
var vmBodySeeds = []string{
	`{"vm":1,"type":"m3.large"}`, `{"vm":1}`, `{"vm":-12}`, `{"vm":-0}`, `{"vm":0}`, `{"vm":01}`,
	`{"vm": 1}`, `{"VM":1}`, `{"vm":1,"type":"m3\u002elarge"}`, `{"vm":1}x`, `{"vm":1,"x":2}`,
	`{"vm":123456789012345678}`, `{"vm":1234567890123456789}`, `{"vm":12345678901234567890}`,
	`{"vm":1.0}`, `{"vm":1e2}`, `{"vm":null}`, `{"vm":1,"type":""}`, `{"vm":1,"type":"a<b"}`,
	`{"type":"m3.large","vm":1}`, `{"vm":1,"vm":2}`, ``, `{`, `{"vm":1,"type":"m3.large"`,
	`{"vm":1,"type":"m3.large"}` + strings.Repeat(" ", 80),
}

// FuzzPlaceBody: the place-body fast path declines or agrees with
// encoding/json, and the handler's read matches decodeBody.
func FuzzPlaceBody(f *testing.F) {
	for _, s := range vmBodySeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkVMBody(t, body, true) })
}

// FuzzReleaseBody: the same for the release body.
func FuzzReleaseBody(f *testing.F) {
	for _, s := range vmBodySeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkVMBody(t, body, false) })
}
