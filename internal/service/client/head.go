package client

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http/httputil"
	"strings"
)

// readHead reads one response head from cn.br: the status line, then the
// header lines up to the blank line. It returns the status, whether the
// connection may carry another request, and the body, framed by
// Content-Length or by chunked coding. Only Content-Length,
// Transfer-Encoding and Connection change what it does; any other field
// is checked for form and skipped. Whatever it does not accept is an
// error, and the caller closes the connection.
func (cn *conn) readHead() (status int, keep bool, body io.Reader, err error) {
	line, err := cn.line()
	if err != nil {
		return 0, false, nil, err
	}
	if status, err = parseStatus(line); err != nil {
		return 0, false, nil, err
	}
	length, chunked, keep := int64(-1), false, true
	for {
		if line, err = cn.line(); err != nil {
			return 0, false, nil, err
		}
		if len(line) == 0 {
			break
		}
		name, value, err := parseField(line)
		if err != nil {
			return 0, false, nil, err
		}
		switch {
		case asciiEqualFold(name, "content-length"):
			n, ok := parseLength(value)
			if !ok || length >= 0 {
				return 0, false, nil, fmt.Errorf("bad or repeated Content-Length %q", value)
			}
			length = n
		case asciiEqualFold(name, "transfer-encoding"):
			if chunked || !asciiEqualFold(value, "chunked") {
				return 0, false, nil, fmt.Errorf("unsupported Transfer-Encoding %q", value)
			}
			chunked = true
		case asciiEqualFold(name, "connection"):
			if hasToken(value, "close") {
				keep = false
			}
		case asciiEqualFold(name, "trailer"):
			return 0, false, nil, errors.New("response declares trailer fields")
		}
	}
	switch {
	case chunked && length >= 0:
		return 0, false, nil, errors.New("response has both Content-Length and chunked coding")
	case chunked:
		return status, keep, &chunkedBody{br: cn.br, r: httputil.NewChunkedReader(cn.br)}, nil
	case length >= 0:
		cn.fixed = fixedBody{br: cn.br, n: length}
		return status, keep, &cn.fixed, nil
	}
	return 0, false, nil, errors.New("response has neither Content-Length nor chunked coding")
}

// line reads one line from cn.br without its LF and the CR before it. A
// line that does not fit the reader's buffer is an error.
func (cn *conn) line() ([]byte, error) {
	b, err := cn.br.ReadSlice('\n')
	switch {
	case err == bufio.ErrBufferFull:
		return nil, fmt.Errorf("response line over %d bytes", cn.br.Size())
	case err == io.EOF:
		return nil, io.ErrUnexpectedEOF
	case err != nil:
		return nil, err
	}
	b = b[:len(b)-1]
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b, nil
}

// parseStatus returns the code of an "HTTP/1.1 NNN[ reason]" status line.
// Only a status whose response carries a body is accepted: never 1xx,
// 204 or 304, none of which the daemon sends.
func parseStatus(line []byte) (int, error) {
	const proto = "HTTP/1.1 "
	n := len(proto)
	if len(line) < n+3 || string(line[:n]) != proto || len(line) > n+3 && line[n+3] != ' ' {
		return 0, fmt.Errorf("malformed status line %q", line)
	}
	code := 0
	for _, c := range line[n : n+3] {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("malformed status line %q", line)
		}
		code = code*10 + int(c-'0')
	}
	if code < 200 || code == 204 || code == 304 {
		return 0, fmt.Errorf("status %d has no body", code)
	}
	return code, nil
}

// parseField splits a header line into its name, a token, and its value,
// which may hold no control byte but HTAB and loses its surrounding blanks.
// A line that begins with a blank (an obsolete folded continuation) has no
// name and is refused.
func parseField(line []byte) (name, value []byte, err error) {
	i := bytes.IndexByte(line, ':')
	if i <= 0 {
		return nil, nil, fmt.Errorf("malformed header line %q", line)
	}
	name, value = line[:i], line[i+1:]
	for _, c := range name {
		if !isTokenByte(c) {
			return nil, nil, fmt.Errorf("malformed header line %q", line)
		}
	}
	for _, c := range value {
		if c < ' ' && c != '\t' || c == 0x7f {
			return nil, nil, fmt.Errorf("malformed header line %q", line)
		}
	}
	return name, trimBlanks(value), nil
}

// isTokenByte reports whether c may appear in a field name (RFC 9110 tchar).
func isTokenByte(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
		c != 0 && strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0
}

// trimBlanks returns b without leading and trailing spaces and tabs.
func trimBlanks(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t') {
		b = b[:len(b)-1]
	}
	return b
}

// asciiEqualFold reports whether b and s are equal under ASCII case
// folding; unlike bytes.EqualFold, no other Unicode folding applies.
func asciiEqualFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		if lower(b[i]) != lower(s[i]) {
			return false
		}
	}
	return true
}

func lower(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// hasToken reports whether the comma-separated list v holds tok.
func hasToken(v []byte, tok string) bool {
	for {
		i := bytes.IndexByte(v, ',')
		if i < 0 {
			return asciiEqualFold(trimBlanks(v), tok)
		}
		if asciiEqualFold(trimBlanks(v[:i]), tok) {
			return true
		}
		v = v[i+1:]
	}
}

// parseLength parses a Content-Length value: decimal digits only, at most
// math.MaxInt64.
func parseLength(v []byte) (int64, bool) {
	if len(v) == 0 {
		return 0, false
	}
	var n int64
	for _, c := range v {
		d := int64(c - '0')
		if c < '0' || c > '9' || n > (math.MaxInt64-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// fixedBody is a Content-Length body: the next n bytes of br. A stream
// that ends before them is io.ErrUnexpectedEOF.
type fixedBody struct {
	br *bufio.Reader
	n  int64
}

func (b *fixedBody) Read(p []byte) (int, error) {
	if b.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > b.n {
		p = p[:b.n]
	}
	n, err := b.br.Read(p)
	b.n -= int64(n)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

// ReadByte reads one byte of the body: DecodeResponse reads the response
// header through it without a buffer of its own.
func (b *fixedBody) ReadByte() (byte, error) {
	if b.n <= 0 {
		return 0, io.EOF
	}
	c, err := b.br.ReadByte()
	if err == io.EOF {
		return 0, io.ErrUnexpectedEOF
	}
	if err == nil {
		b.n--
	}
	return c, err
}

// chunkedBody is a chunked body: httputil's chunk decoder, and then the
// trailer, which must be read too for the connection to stand at the next
// response.
type chunkedBody struct {
	br  *bufio.Reader
	r   io.Reader // httputil.NewChunkedReader(br)
	err error     // once set, every Read returns it: io.EOF after the trailer
}

func (b *chunkedBody) Read(p []byte) (int, error) {
	if b.err != nil {
		return 0, b.err
	}
	n, err := b.r.Read(p)
	if err == io.EOF {
		if err = readTrailer(b.br); err == nil {
			err = io.EOF
		}
	}
	b.err = err
	return n, err
}

// readTrailer reads a chunked body's trailer through its blank line:
// field lines, each ending in CRLF, within one buffer of br in all.
func readTrailer(br *bufio.Reader) error {
	size := 0
	for {
		b, err := br.ReadSlice('\n')
		if size += len(b); size > br.Size() || err == bufio.ErrBufferFull {
			return fmt.Errorf("response trailer over %d bytes", br.Size())
		}
		if err == io.EOF {
			return io.ErrUnexpectedEOF
		}
		if err != nil {
			return err
		}
		if len(b) < 2 || b[len(b)-2] != '\r' {
			return fmt.Errorf("trailer line %q does not end in CRLF", b)
		}
		if len(b) == 2 {
			return nil
		}
		if _, _, err := parseField(b[:len(b)-2]); err != nil {
			return err
		}
	}
}
