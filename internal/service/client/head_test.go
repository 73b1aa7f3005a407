package client

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"memverify/internal/service"
)

// The response form the client accepts, stated apart from its code: an
// HTTP/1.1 status line with a three-digit code, header lines whose name is
// a token and whose value holds no control byte but HTAB, each line ending
// in LF or CRLF and no longer than the 4 KiB reader buffer, then a blank
// line. Trailer lines must end in CRLF.
const fieldForm = "([!#$%&'*+\\-.^_`|~0-9A-Za-z]+):([^\\x00-\\x08\\x0a-\\x1f\\x7f]*)"

var (
	statusForm  = regexp.MustCompile(`^HTTP/1\.1 ([0-9]{3})(?: [^\n]*)?\r?\n`)
	headerForm  = regexp.MustCompile(`^` + fieldForm + `\r?\n`)
	trailerForm = regexp.MustCompile(`^` + fieldForm + `\r\n`)
	blankForm   = regexp.MustCompile(`^\r?\n`)
)

// inForm reports whether wire begins with a response in that form whose
// status carries a body (not 1xx, 204 or 304), framed by exactly one
// valid Content-Length or one "Transfer-Encoding: chunked", declaring no
// trailer fields, and, if chunked, followed by a trailer within 4 KiB.
func inForm(wire []byte) bool {
	const maxLine = 4096
	m := statusForm.FindSubmatch(wire)
	if m == nil || len(m[0]) > maxLine {
		return false
	}
	if code, _ := strconv.Atoi(string(m[1])); code < 200 || code == 204 || code == 304 {
		return false
	}
	rest := wire[len(m[0]):]
	lengths, codings, chunked := 0, 0, false
	for {
		if b := blankForm.Find(rest); b != nil {
			rest = rest[len(b):]
			break
		}
		m := headerForm.FindSubmatch(rest)
		if m == nil || len(m[0]) > maxLine {
			return false
		}
		value := strings.Trim(string(m[2]), " \t")
		switch strings.ToLower(string(m[1])) {
		case "content-length":
			lengths++
			if _, err := strconv.ParseUint(value, 10, 63); err != nil {
				return false
			}
		case "transfer-encoding":
			codings++
			chunked = strings.ToLower(value) == "chunked"
		case "trailer":
			return false
		}
		rest = rest[len(m[0]):]
	}
	if lengths+codings != 1 || codings == 1 && !chunked {
		return false
	}
	if !chunked {
		return true
	}
	br := bufio.NewReaderSize(bytes.NewReader(rest), len(rest)+16)
	if _, err := io.Copy(io.Discard, httputil.NewChunkedReader(br)); err != nil {
		return false
	}
	trailer, _ := br.Peek(br.Buffered())
	for size := 0; ; {
		if bytes.HasPrefix(trailer, []byte("\r\n")) {
			return size+2 <= maxLine
		}
		m := trailerForm.Find(trailer)
		if m == nil {
			return false
		}
		size += len(m)
		trailer = trailer[len(m):]
	}
}

// oracle reads wire with net/http: the status, the close flag and the
// whole body, or ok false if ReadResponse or the body read fails.
func oracle(wire []byte) (status int, closes bool, body []byte, ok bool) {
	resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(wire)), nil)
	if err != nil {
		return 0, false, nil, false
	}
	if body, err = io.ReadAll(resp.Body); err != nil {
		return 0, false, nil, false
	}
	return resp.StatusCode, resp.Close, body, true
}

// replayConn is a connection whose peer sends wire and reads whatever it
// is sent.
type replayConn struct {
	net.Conn // unset: roundTrip calls only the methods below
	r        *bytes.Reader
}

func (c *replayConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *replayConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *replayConn) Close() error                { return nil }
func (c *replayConn) SetDeadline(time.Time) error { return nil }

// FuzzReadHead holds the client's head reader against http.ReadResponse.
// Where net/http accepts a response that is in the form the client
// supports (inForm), the client must accept it too and agree on the
// status, on whether the connection closes and on every body byte; it
// must refuse anything else. A control call over a connection that
// replays the same bytes then pools the connection only for an accepted
// response that keeps it open, and fails on a refused one. The seed
// corpus is testdata/fuzz/FuzzReadHead.
func FuzzReadHead(f *testing.F) {
	f.Fuzz(func(t *testing.T, wire []byte) {
		status, closes, want, ok := oracle(wire)
		supported := ok && inForm(wire)

		cn := &conn{br: bufio.NewReader(bytes.NewReader(wire))}
		gotStatus, keep, body, err := cn.readHead()
		var got []byte
		if err == nil {
			got, err = io.ReadAll(body)
		}
		if (err == nil) != supported {
			t.Fatalf("client: %v; net/http accepts: %t; in the supported form: %t", err, ok, inForm(wire))
		}
		if supported && (gotStatus != status || keep == closes || !bytes.Equal(got, want)) {
			t.Fatalf("client read status %d, keep %t, %d body bytes; net/http %d, close %t, %d bytes",
				gotStatus, keep, len(got), status, closes, len(want))
		}

		if len(want) >= 1<<20 {
			return // rest gives up on a body over 1 MiB, which no reply comes near
		}
		c := &Client{base: "http://fuzz", host: "fuzz"}
		c.idle = []*conn{newConn(&replayConn{r: bytes.NewReader(wire)})}
		err = c.call("POST", "/v1/t/fuzz/flush", nil)
		var apiErr *service.APIError
		switch {
		case !supported && err == nil:
			t.Fatal("a control call over a refused response succeeded")
		case supported && status == http.StatusOK && err != nil:
			t.Fatalf("a control call over an accepted 200: %v", err)
		case supported && status != http.StatusOK && (!errors.As(err, &apiErr) || apiErr.Status != status):
			t.Fatalf("a control call over an accepted %d: %v", status, err)
		}
		if pooled := len(c.idle) == 1; pooled != (supported && !closes) {
			t.Fatalf("connection pooled: %t; accepted %t, close %t", pooled, supported, closes)
		}
	})
}
