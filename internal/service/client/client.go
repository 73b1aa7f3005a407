// Package client is the Go client for the memverifyd batch protocol
// (internal/service): it dials a tenant, discovers its geometry from
// GET /v1/tenants, and exposes the same batch surface as a local
// shard.Store — NewBatch/Load/Store/Wait plus Flush, Verify, Checkpoint
// and Tamper — so a driver (cmd/loadgen) keeps store semantics over the
// wire.
//
// A Client is safe for concurrent use; each worker owns its Batches. The
// client speaks HTTP/1.1 over its own pool of keep-alive connections and
// runs no goroutine: N workers with in-flight batches hold ~N connections.
// 429 (admission backpressure) is retried internally with capped
// exponential backoff; every other error surfaces as a *service.APIError
// the caller can inspect.
//
// The batch path allocates per batch, not per op or per request: a Batch
// encodes each op into its own MVB1 buffer as it is added, and Wait writes
// a request head rendered at Dial and that buffer in one writev. The
// buffer is the batch's again as soon as the write returns. A written
// request is never sent again: a pooled connection the server closed
// while it sat idle is found before the write and replaced. hungDaemon is
// every round trip's deadline, from the write to the response's last byte.
//
// The client reads each response head itself, without http.ReadResponse
// and so without a header map per call. It accepts an "HTTP/1.1 NNN"
// status line (a reason phrase is optional; 1xx, 204 and 304 are refused),
// then header lines of a token name and a value free of control bytes but
// HTAB, each ending in CRLF or LF and fitting the connection's 4 KiB
// reader, then a blank line. Names compare case-insensitively, and only
// three fields change anything: Content-Length, Transfer-Encoding
// (chunked is the one coding) and Connection (its close token). The body
// must be framed by exactly one of a Content-Length and chunked coding; a
// chunked body's trailer is read up to its blank line, and a head that
// declares trailer fields (Trailer) is refused. Anything else fails the
// call and closes the connection.
package client

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"memverify/internal/service"
)

// hungDaemon bounds every round trip, control calls and batches alike. A
// pooled connection idle for longer than that is dropped, not reused.
const hungDaemon = 5 * time.Minute

// maxIdle is how many keep-alive connections a Client pools: enough that a
// hundred concurrent workers do not take turns on a few.
const maxIdle = 256

// Client addresses one tenant of one memverifyd instance.
type Client struct {
	addr      string // dial address, host:port
	host      string // Host header
	base      string // e.g. "http://127.0.0.1:8380", no trailing slash
	batchHead []byte // the batch request's head up to its Content-Length value
	tenant    string
	info      service.TenantInfo

	mu     sync.Mutex
	idle   []*conn // LIFO: the last connection used is reused first
	closed bool

	// RetryBudget bounds how long Wait keeps retrying 429 responses
	// before surfacing the busy error. Defaults to 30s.
	RetryBudget time.Duration
}

// Dial normalizes base (host:port or http:// URL), fetches the tenant
// listing and binds to the named tenant. It fails fast on an unknown
// tenant or unreachable daemon.
func Dial(base, tenant string) (*Client, error) {
	base = strings.TrimRight(base, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if u.Scheme != "http" {
		return nil, fmt.Errorf("client: %s: only http:// daemons are supported", base)
	}
	port := u.Port()
	if port == "" {
		port = "80"
	}
	c := &Client{
		addr:        net.JoinHostPort(u.Hostname(), port),
		host:        u.Host,
		base:        base,
		tenant:      tenant,
		RetryBudget: 30 * time.Second,
	}
	uri, err := c.requestURI("/v1/t/" + tenant + "/batch")
	if err != nil {
		return nil, err
	}
	// No Content-Type: the service never reads it, and without one net/http
	// parses one header line fewer per batch.
	c.batchHead = fmt.Appendf(nil, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Length: ", uri, c.host)
	infos, err := c.Tenants()
	if err != nil {
		c.Close()
		return nil, err
	}
	for _, info := range infos {
		if info.Name == tenant {
			c.info = info
			return c, nil
		}
	}
	c.Close()
	names := make([]string, len(infos))
	for i, info := range infos {
		names[i] = info.Name
	}
	return nil, fmt.Errorf("client: tenant %q not hosted (have %s)", tenant, strings.Join(names, ", "))
}

// requestURI is the request target of path under the client's base URL.
func (c *Client) requestURI(path string) (string, error) {
	u, err := url.Parse(c.base + path)
	if err != nil {
		return "", fmt.Errorf("client: %w", err)
	}
	return u.RequestURI(), nil
}

// Tenants fetches the live tenant listing.
func (c *Client) Tenants() ([]service.TenantInfo, error) {
	var infos []service.TenantInfo
	if err := c.call("GET", "/v1/tenants", &infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// Info returns the tenant's geometry as discovered at Dial time.
func (c *Client) Info() service.TenantInfo { return c.info }

// Span, Shards, ShardSpan and ShardFor mirror shard.Store's addressing
// surface so remote and local targets are interchangeable.
func (c *Client) Span() uint64      { return c.info.Span }
func (c *Client) Shards() int       { return c.info.Shards }
func (c *Client) ShardSpan() uint64 { return c.info.ShardSpan }
func (c *Client) ShardFor(off uint64) int {
	return int((off % c.info.Span) / c.info.ShardSpan)
}

// Close closes every pooled connection. A call in flight closes its own
// connection when it returns, and a call after Close still works but
// keeps no connection.
func (c *Client) Close() {
	c.mu.Lock()
	idle := c.idle
	c.idle, c.closed = nil, true
	c.mu.Unlock()
	for _, cn := range idle {
		cn.nc.Close()
	}
}

// Batch buffers operations locally; Wait ships them as one request. Like
// shard.Batch, same-address operations within a batch apply in
// submission order (the server submits them to the owning shard's FIFO
// queue in op order) and a batch is reusable after Wait.
//
// A Batch owns its request for its whole life: the MVB1 buffer each op is
// encoded into as it is added and the head that goes in front of it. Wait
// writes both in one writev that has returned before Wait reads the
// response, so nothing else holds them between Waits, whatever the
// outcome.
type Batch struct {
	c    *Client
	buf  []byte       // MVB1 request: header, then every op added so far
	ops  []service.Op // one per op: Write, and a read's destination
	head []byte       // the request head for buf
	iov  [2][]byte    // head and buf, for the writev
	req  net.Buffers  // over iov; the write consumes it
}

// A new batch's buffer holds batchBuf bytes; a batch keeps no buffer
// larger than maxKeptBuf across a Wait, so one bulk batch does not pin its
// payload for the rest of the batch's life.
const (
	batchBuf   = 512
	maxKeptBuf = 32 << 10
)

// NewBatch starts an empty batch.
func (c *Client) NewBatch() *Batch {
	return &Batch{c: c, buf: make([]byte, service.RequestHeaderSize, batchBuf)}
}

// Load buffers a verified read of len(p) bytes at global offset off; p is
// filled when Wait succeeds and must stay untouched until then.
func (b *Batch) Load(off uint64, p []byte) {
	op := service.Op{Off: off, Data: p}
	b.buf = service.AppendOp(b.buf, op)
	b.ops = append(b.ops, op)
}

// Store buffers a write of p at global offset off. p is copied into the
// request at once — the caller may reuse the buffer immediately.
func (b *Batch) Store(off uint64, p []byte) {
	b.buf = service.AppendOp(b.buf, service.Op{Write: true, Off: off, Data: p})
	b.ops = append(b.ops, service.Op{Write: true})
}

// Wait ships the buffered batch, fills every Load destination and resets
// the batch for reuse, keeping no reference to any destination. 429
// responses are retried with capped backoff within the client's
// RetryBudget; other failures return the decoded *service.APIError (or
// the connection's error).
func (b *Batch) Wait() error {
	if len(b.ops) == 0 {
		return nil
	}
	defer b.reset()
	service.PutRequestHeader(b.buf, len(b.ops))
	b.head = strconv.AppendInt(append(b.head[:0], b.c.batchHead...), int64(len(b.buf)), 10)
	b.head = append(b.head, "\r\n\r\n"...)

	deadline := time.Now().Add(b.c.RetryBudget)
	backoff := 5 * time.Millisecond
	for {
		b.iov = [2][]byte{b.head, b.buf}
		b.req = b.iov[:]
		err := b.c.roundTrip(&b.req, b.ops, nil)
		apiErr, ok := err.(*service.APIError)
		if !ok || apiErr.Status != http.StatusTooManyRequests || time.Now().After(deadline) {
			return err
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 250*time.Millisecond {
			backoff = 250 * time.Millisecond
		}
	}
}

// reset empties the batch for its next ops.
func (b *Batch) reset() {
	clear(b.ops) // drop the Load destinations
	b.ops = b.ops[:0]
	if cap(b.buf) > maxKeptBuf {
		b.buf = make([]byte, service.RequestHeaderSize, batchBuf)
	}
	b.buf = b.buf[:service.RequestHeaderSize]
}

// LoadBytes is the synchronous form of Batch.Load.
func (c *Client) LoadBytes(off uint64, p []byte) error {
	b := c.NewBatch()
	b.Load(off, p)
	return b.Wait()
}

// StoreBytes is the synchronous form of Batch.Store.
func (c *Client) StoreBytes(off uint64, p []byte) error {
	b := c.NewBatch()
	b.Store(off, p)
	return b.Wait()
}

// Flush drains the tenant's dirty cached state — the remote
// cryptographic barrier.
func (c *Client) Flush() error { return c.post("flush", "", nil) }

// Verify re-reads the tenant's whole region through the verification
// engine; a violation (or halted shard) returns the 503 APIError.
func (c *Client) Verify() error { return c.post("verify", "", nil) }

// Checkpoint seals one persistence epoch and returns it.
func (c *Client) Checkpoint() (uint64, error) {
	var out struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := c.post("checkpoint", "", &out); err != nil {
		return 0, err
	}
	return out.Epoch, nil
}

// Tamper corrupts one byte of the tenant's protected memory (the shard's
// cached copy is evicted first so the corruption is visible). The daemon
// must have been started with tampering allowed.
func (c *Client) Tamper(shard int, off uint64, xor byte) error {
	return c.post("tamper", fmt.Sprintf("?shard=%d&off=%d&xor=%d", shard, off, xor), nil)
}

// post calls one of the tenant's control endpoints.
func (c *Client) post(endpoint, query string, out any) error {
	return c.call("POST", "/v1/t/"+c.tenant+"/"+endpoint+query, out)
}

// call sends a bodiless request for path and decodes a 200's JSON body
// into out, unless out is nil.
func (c *Client) call(method, path string, out any) error {
	uri, err := c.requestURI(path)
	if err != nil {
		return err
	}
	req := net.Buffers{fmt.Appendf(nil, "%s %s HTTP/1.1\r\nHost: %s\r\nContent-Length: 0\r\n\r\n", method, uri, c.host)}
	return c.roundTrip(&req, nil, out)
}

// roundTrip writes req on a pooled connection and reads the response: a
// 200's body into ops (a batch) or out (a control call's JSON, unless out
// is nil), anything else into its *service.APIError. The connection goes
// back to the pool only if the write completed, the body was read to its
// end and the server did not ask to close.
func (c *Client) roundTrip(req *net.Buffers, ops []service.Op, out any) error {
	cn, err := c.get()
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	cn.nc.SetDeadline(time.Now().Add(hungDaemon)) //nolint:errcheck // a closed conn fails the write
	_, werr := req.WriteTo(cn.nc)
	// A request the server refuses on its head (a batch over its limits)
	// is answered before its body is read, and the server may close the
	// connection under the rest of the write: that answer, not the write
	// error, is what to report.
	status, keep, body, err := cn.readHead()
	if err != nil {
		cn.nc.Close()
		if werr != nil {
			err = werr
		}
		return fmt.Errorf("client: %w", err)
	}
	switch {
	case status != http.StatusOK:
		err = decodeError(status, body)
	case ops != nil:
		err = service.DecodeResponse(body, ops)
	case out != nil:
		if err = json.NewDecoder(body).Decode(out); err != nil {
			err = fmt.Errorf("client: decoding the response: %w", err)
		}
	}
	if _, ok := err.(*service.APIError); err != nil && !ok {
		cn.nc.Close()
		return err
	}
	// Only a body read to its end leaves the connection at the next
	// response, and a batch's body must end where its ops do.
	n, rerr := cn.rest(body)
	if err == nil {
		if rerr == nil && ops != nil && n > 0 {
			rerr = fmt.Errorf("client: %d bytes after the response's last op", n)
		}
		err = rerr
	}
	c.put(cn, werr == nil && rerr == nil && keep)
	return err
}

// get pops the most recently pooled connection that is still alive, or
// dials a new one.
func (c *Client) get() (*conn, error) {
	c.mu.Lock()
	for n := len(c.idle); n > 0; n = len(c.idle) {
		cn := c.idle[n-1]
		c.idle[n-1] = nil
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		if cn.alive() {
			return cn, nil
		}
		cn.nc.Close()
		c.mu.Lock()
	}
	c.mu.Unlock()
	nc, err := net.DialTimeout("tcp", c.addr, hungDaemon)
	if err != nil {
		return nil, err
	}
	return newConn(nc), nil
}

// put pools cn if reuse holds and the pool has room, and closes it
// otherwise.
func (c *Client) put(cn *conn, reuse bool) {
	if reuse {
		c.mu.Lock()
		if !c.closed && len(c.idle) < maxIdle {
			c.idle = append(c.idle, cn)
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
	}
	cn.nc.Close()
}

// conn is one keep-alive connection to the daemon.
type conn struct {
	nc      net.Conn
	br      *bufio.Reader
	peek    peeker
	fixed   fixedBody // the body of a Content-Length response
	scratch [512]byte // rest's discard buffer
}

func newConn(nc net.Conn) *conn {
	cn := &conn{nc: nc, br: bufio.NewReader(nc)}
	cn.peek.init(nc)
	return cn
}

// alive reports whether a pooled connection can carry a request: the
// server has neither closed it nor sent anything unasked, and its last
// deadline has not passed.
func (cn *conn) alive() bool {
	return cn.br.Buffered() == 0 && cn.peek.quiet()
}

// errLongBody is rest's error for a body it gave up on.
var errLongBody = errors.New("client: response body over 1 MiB")

// rest reads body to its end and returns how many bytes were left in it;
// only after a nil error does the connection stand at the next response.
// It gives up after 1 MiB, which no response the client expects comes
// near.
func (cn *conn) rest(body io.Reader) (int, error) {
	n := 0
	for range (1 << 20) / len(cn.scratch) {
		m, err := body.Read(cn.scratch[:])
		n += m
		switch {
		case err == io.EOF:
			return n, nil
		case err != nil:
			return n, fmt.Errorf("client: response body: %w", err)
		}
	}
	return n, errLongBody
}

// decodeError turns a non-200 response into its *service.APIError; bodies
// that are not the JSON envelope degrade to a generic error of the same
// status.
func decodeError(status int, body io.Reader) error {
	apiErr := &service.APIError{Status: status, Kind: service.KindInternal}
	msg, _ := io.ReadAll(io.LimitReader(body, 64<<10))
	if err := json.Unmarshal(msg, apiErr); err != nil || apiErr.Msg == "" {
		apiErr.Msg = fmt.Sprintf("http %d: %s", status, strings.TrimSpace(string(msg)))
	}
	return apiErr
}
