// Package client is the Go client for the memverifyd batch protocol
// (internal/service): it dials a tenant, discovers its geometry from
// GET /v1/tenants, and exposes the same batch surface as a local
// shard.Store — NewBatch/Load/Store/Wait plus Flush, Verify, Checkpoint
// and Tamper — so drivers like loadgen run unchanged over the wire.
//
// A Client is safe for concurrent use; each worker owns its Batches. The
// underlying transport pools keep-alive connections, so N workers with
// in-flight batches hold ~N connections. 429 (admission backpressure) is
// retried internally with capped exponential backoff; every other error
// surfaces as a *service.APIError the caller can inspect.
//
// The batch path allocates per batch, not per op or per request: a Batch
// encodes each op into its own MVB1 buffer as it is added and sends that
// buffer with one *http.Request it keeps for its whole life, straight
// through the client's Transport.
package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"memverify/internal/service"
)

// hungDaemon bounds how long any request waits for a response header
// (the batch path's only deadline) and how long a control request may
// take in all.
const hungDaemon = 5 * time.Minute

// Client addresses one tenant of one memverifyd instance.
type Client struct {
	tr       *http.Transport
	hc       *http.Client // control endpoints, on tr
	base     string       // e.g. "http://127.0.0.1:8380", no trailing slash
	batchURL *url.URL
	tenant   string
	info     service.TenantInfo

	// RetryBudget bounds how long Wait keeps retrying 429 responses
	// before surfacing the busy error. Defaults to 30s.
	RetryBudget time.Duration
}

// Dial normalizes base (host:port or full URL), fetches the tenant
// listing and binds to the named tenant. It fails fast on an unknown
// tenant or unreachable daemon.
func Dial(base, tenant string) (*Client, error) {
	base = strings.TrimRight(base, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	batchURL, err := url.Parse(base + "/v1/t/" + tenant + "/batch")
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	tr := &http.Transport{
		// The default MaxIdleConnsPerHost (2) would serialize a
		// hundred workers onto two keep-alive connections; size
		// the pool for concurrent-load use.
		MaxIdleConns:        512,
		MaxIdleConnsPerHost: 256,
		IdleConnTimeout:     90 * time.Second,
		// MVB1 is binary and uncompressed; asking for gzip would only
		// add a header to every batch.
		DisableCompression:    true,
		ResponseHeaderTimeout: hungDaemon,
	}
	c := &Client{
		tr:          tr,
		hc:          &http.Client{Transport: tr, Timeout: hungDaemon},
		base:        base,
		batchURL:    batchURL,
		tenant:      tenant,
		RetryBudget: 30 * time.Second,
	}
	infos, err := c.Tenants()
	if err != nil {
		return nil, err
	}
	for _, info := range infos {
		if info.Name == tenant {
			c.info = info
			return c, nil
		}
	}
	names := make([]string, len(infos))
	for i, info := range infos {
		names[i] = info.Name
	}
	return nil, fmt.Errorf("client: tenant %q not hosted (have %s)", tenant, strings.Join(names, ", "))
}

// Tenants fetches the live tenant listing.
func (c *Client) Tenants() ([]service.TenantInfo, error) {
	resp, err := c.hc.Get(c.base + "/v1/tenants")
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var infos []service.TenantInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return nil, fmt.Errorf("client: decoding tenant listing: %w", err)
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

// Close releases pooled connections.
func (c *Client) Close() { c.tr.CloseIdleConnections() }

// Batch buffers operations locally; Wait ships them as one request. Like
// shard.Batch, same-address operations within a batch apply in
// submission order (the server submits them to the owning shard's FIFO
// queue in op order) and a batch is reusable after Wait.
//
// A Batch owns its request for its whole life: the MVB1 buffer each op is
// encoded into as it is added, the *http.Request that carries it and the
// body reader over it. They are reused from one Wait to the next after a
// 200, which the server sends only once it has read the whole body; after
// anything else the transport may still be reading them, so the batch
// builds fresh ones.
type Batch struct {
	c    *Client
	buf  []byte       // MVB1 request: header, then every op added so far
	ops  []service.Op // one per op: Write, and a read's destination
	req  *http.Request
	body *bytes.Reader
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
	b := &Batch{c: c, buf: make([]byte, service.RequestHeaderSize, batchBuf)}
	b.renew()
	return b
}

// renew gives the batch a request and body reader of its own, neither of
// which the transport has seen.
func (b *Batch) renew() {
	b.body = bytes.NewReader(nil)
	b.req = &http.Request{
		Method: http.MethodPost,
		URL:    b.c.batchURL,
		Header: http.Header{"Content-Type": {"application/octet-stream"}},
		Body:   io.NopCloser(b.body),
		// A keep-alive connection the server closed while idle is
		// retried by the transport with a fresh body from here.
		GetBody: func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(b.buf)), nil
		},
		Host: b.c.batchURL.Host,
	}
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
// the transport error).
func (b *Batch) Wait() error {
	if len(b.ops) == 0 {
		return nil
	}
	defer b.reset()
	service.PutRequestHeader(b.buf, len(b.ops))

	deadline := time.Now().Add(b.c.RetryBudget)
	backoff := 5 * time.Millisecond
	for {
		b.body.Reset(b.buf)
		b.req.ContentLength = int64(len(b.buf))
		resp, err := b.c.tr.RoundTrip(b.req)
		if err != nil {
			b.retire()
			return fmt.Errorf("client: %w", err)
		}
		if resp.StatusCode == http.StatusOK {
			err := service.DecodeResponse(resp.Body, b.ops)
			drain(resp)
			return err
		}
		apiErr := decodeError(resp)
		drain(resp)
		// The server may answer before it has read the whole body (a
		// batch over its limits is refused on its header).
		b.retire()
		if resp.StatusCode != http.StatusTooManyRequests || time.Now().After(deadline) {
			return apiErr
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 250*time.Millisecond {
			backoff = 250 * time.Millisecond
		}
	}
}

// retire hands the current buffer, request and body reader to whatever
// in the transport may still read them and continues on copies.
func (b *Batch) retire() {
	b.buf = append(make([]byte, 0, cap(b.buf)), b.buf...)
	b.renew()
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
func (c *Client) Flush() error { return c.post("flush", "") }

// Verify re-reads the tenant's whole region through the verification
// engine; a violation (or halted shard) returns the 503 APIError.
func (c *Client) Verify() error { return c.post("verify", "") }

// Checkpoint seals one persistence epoch and returns it.
func (c *Client) Checkpoint() (uint64, error) {
	var out struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := c.postJSON("checkpoint", "", &out); err != nil {
		return 0, err
	}
	return out.Epoch, nil
}

// Tamper corrupts one byte of the tenant's protected memory (the shard's
// cached copy is evicted first so the corruption is visible). The daemon
// must have been started with tampering allowed.
func (c *Client) Tamper(shard int, off uint64, xor byte) error {
	return c.post("tamper", fmt.Sprintf("?shard=%d&off=%d&xor=%d", shard, off, xor))
}

func (c *Client) post(endpoint, query string) error {
	return c.postJSON(endpoint, query, nil)
}

func (c *Client) postJSON(endpoint, query string, out any) error {
	url := c.base + "/v1/t/" + c.tenant + "/" + endpoint + query
	resp, err := c.hc.Post(url, "", nil)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("client: decoding %s response: %w", endpoint, err)
		}
	}
	return nil
}

// decodeError turns a non-200 response into its *service.APIError; bodies
// that are not the JSON envelope degrade to a generic error of the same
// status.
func decodeError(resp *http.Response) error {
	apiErr := &service.APIError{Status: resp.StatusCode, Kind: service.KindInternal}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	if err := json.Unmarshal(body, apiErr); err != nil || apiErr.Msg == "" {
		apiErr.Msg = fmt.Sprintf("http %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return apiErr
}

// drain consumes the rest of the body so the connection returns to the
// keep-alive pool.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20)) //nolint:errcheck // pool hygiene
	resp.Body.Close()
}
