package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestJSONInt(t *testing.T) {
	body := []byte(`{"vm":4294967297,"pm":17,"pm_type":"M3","score":0.5,"seq":-1}`)
	if v, ok := jsonInt(body, fieldPM); !ok || v != 17 {
		t.Errorf("pm = %d, %v", v, ok)
	}
	if v, ok := jsonInt(body, fieldSeq); !ok || v != -1 {
		t.Errorf("seq = %d, %v", v, ok)
	}
	if _, ok := jsonInt([]byte(`{"code":"no_capacity"}`), fieldSeq); ok {
		t.Error("missing field reported present")
	}
	if _, ok := jsonInt([]byte(`{"seq":"x"}`), fieldSeq); ok {
		t.Error("non-numeric field reported present")
	}
}

// The client must read both framings net/http produces: a length for
// small replies, chunks for ones larger than its write buffer.
func TestClientReadsLengthAndChunkedBodies(t *testing.T) {
	big := strings.Repeat("x", 10000)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/big":
			_, _ = w.Write([]byte(big))
		case "/missing":
			http.Error(w, "nope", http.StatusNotFound)
		default:
			_, _ = w.Write([]byte("small"))
		}
	}))
	defer srv.Close()
	c, err := dial(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	for i := 0; i < 2; i++ { // twice: the connection is kept alive
		if code, body, err := c.post("/small", `{}`); err != nil || code != 200 || string(body) != "small" {
			t.Fatalf("small: %d %q %v", code, body, err)
		}
		if code, body, err := c.get("/big"); err != nil || code != 200 || string(body) != big {
			t.Fatalf("big: %d len %d %v", code, len(body), err)
		}
		if code, _, err := c.get("/missing"); err != nil || code != 404 {
			t.Fatalf("missing: %d %v", code, err)
		}
	}
}
