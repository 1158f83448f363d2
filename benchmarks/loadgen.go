package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// ioTimeout bounds every request/response round trip, so a hung server
// fails the run instead of hanging it (the driver kills at 180 s).
const ioTimeout = 30 * time.Second

// client is one keep-alive HTTP/1.1 connection speaking the minimum of
// the protocol over a raw socket — the cmd/prvm-load shape: a load
// generator sharing two cores with the server must not spend them on
// net/http's client transport. Bodies are framed by Content-Length (the small
// JSON acks) or chunked (the cluster listing). Not safe for concurrent use.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	host string
	req  []byte
	body []byte
}

// dial opens a client connection to host ("127.0.0.1:port").
func dial(host string) (*client, error) {
	conn, err := net.DialTimeout("tcp", host, ioTimeout)
	if err != nil {
		return nil, fmt.Errorf("loadgen: dial %s: %w", host, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // an optimisation only; loopback works either way
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 16<<10), host: host}, nil
}

// close closes the connection.
func (c *client) close() { _ = c.conn.Close() } // the socket is only read after the last write was answered

// post sends one POST with a JSON body and returns the status code and
// the response body. The body aliases an internal buffer valid until
// the next call.
func (c *client) post(path, body string) (int, []byte, error) {
	c.req = append(c.req[:0], "POST "...)
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: "...)
	c.req = append(c.req, c.host...)
	c.req = append(c.req, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	c.req = strconv.AppendInt(c.req, int64(len(body)), 10)
	c.req = append(c.req, "\r\n\r\n"...)
	c.req = append(c.req, body...)
	return c.roundTrip()
}

// get sends one GET and returns the status code and response body
// (aliasing an internal buffer valid until the next call).
func (c *client) get(path string) (int, []byte, error) {
	c.req = append(c.req[:0], "GET "...)
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: "...)
	c.req = append(c.req, c.host...)
	c.req = append(c.req, "\r\n\r\n"...)
	return c.roundTrip()
}

// roundTrip writes the prepared request and parses one response.
func (c *client) roundTrip() (int, []byte, error) {
	if err := c.conn.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
		return 0, nil, fmt.Errorf("loadgen: arm deadline: %w", err)
	}
	if _, err := c.conn.Write(c.req); err != nil {
		return 0, nil, fmt.Errorf("loadgen: write: %w", err)
	}
	status, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, fmt.Errorf("loadgen: read status: %w", err)
	}
	// "HTTP/1.1 200 OK": the code is the second space-separated field.
	sp := bytes.IndexByte(status, ' ')
	if sp < 0 || len(status) < sp+4 {
		return 0, nil, fmt.Errorf("loadgen: malformed status line %q", status)
	}
	code, err := strconv.Atoi(string(status[sp+1 : sp+4]))
	if err != nil {
		return 0, nil, fmt.Errorf("loadgen: malformed status line %q", status)
	}
	length, chunked := -1, false
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, fmt.Errorf("loadgen: read header: %w", err)
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		k, v, ok := bytes.Cut(line, hdrSep)
		if !ok {
			continue
		}
		k, v = bytes.TrimSpace(k), bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, hdrContentLength):
			if length, err = strconv.Atoi(string(v)); err != nil {
				return 0, nil, fmt.Errorf("loadgen: bad content-length %q", v)
			}
		case bytes.EqualFold(k, hdrTransferEncoding):
			if !bytes.EqualFold(v, hdrChunked) {
				return 0, nil, fmt.Errorf("loadgen: unsupported transfer-encoding %q", v)
			}
			chunked = true
		case bytes.EqualFold(k, hdrConnection) && bytes.EqualFold(v, hdrClose):
			return 0, nil, fmt.Errorf("loadgen: server closed the connection (status %d)", code)
		}
	}
	if chunked {
		// net/http chunks any body larger than its write buffer (the
		// GET /v1/cluster?vms=1 listing); small replies carry a length.
		if err := c.readChunked(); err != nil {
			return 0, nil, err
		}
		return code, c.body, nil
	}
	if length < 0 {
		return 0, nil, fmt.Errorf("loadgen: response without content-length (status %d)", code)
	}
	if cap(c.body) < length {
		c.body = make([]byte, length)
	}
	c.body = c.body[:length]
	if _, err := io.ReadFull(c.br, c.body); err != nil {
		return 0, nil, fmt.Errorf("loadgen: read body: %w", err)
	}
	return code, c.body, nil
}

// readChunked reads a chunked body into c.body.
func (c *client) readChunked() error {
	c.body = c.body[:0]
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return fmt.Errorf("loadgen: read chunk size: %w", err)
		}
		size, _, _ := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte(";"))
		n, err := strconv.ParseInt(string(size), 16, 32)
		if err != nil || n < 0 {
			return fmt.Errorf("loadgen: bad chunk size %q", line)
		}
		if n == 0 {
			// No trailers are sent; the terminating blank line remains.
			if _, err := c.br.ReadSlice('\n'); err != nil {
				return fmt.Errorf("loadgen: read chunk trailer: %w", err)
			}
			return nil
		}
		at := len(c.body)
		c.body = append(c.body, make([]byte, n)...)
		if _, err := io.ReadFull(c.br, c.body[at:]); err != nil {
			return fmt.Errorf("loadgen: read chunk: %w", err)
		}
		if _, err := c.br.Discard(2); err != nil { // the chunk's CRLF
			return fmt.Errorf("loadgen: read chunk end: %w", err)
		}
	}
}

// Header names and values the response parser matches.
var (
	hdrSep              = []byte(":")
	hdrContentLength    = []byte("content-length")
	hdrTransferEncoding = []byte("transfer-encoding")
	hdrConnection       = []byte("connection")
	hdrClose            = []byte("close")
	hdrChunked          = []byte("chunked")
)

// Field patterns for jsonInt.
var (
	fieldPM  = []byte(`"pm":`)
	fieldSeq = []byte(`"seq":`)
)

// jsonInt extracts the integer value following field (a `"key":`
// pattern) in a flat JSON object without allocating — enough for the
// two fields (pm, seq) the driver checks on every acked response.
func jsonInt(body, field []byte) (int64, bool) {
	i := bytes.Index(body, field)
	if i < 0 {
		return 0, false
	}
	i += len(field)
	neg := false
	if i < len(body) && body[i] == '-' {
		neg = true
		i++
	}
	start := i
	var v int64
	for i < len(body) && body[i] >= '0' && body[i] <= '9' {
		v = v*10 + int64(body[i]-'0')
		i++
	}
	if i == start {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}
