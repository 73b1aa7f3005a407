package client

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memverify/internal/core"
	"memverify/internal/service"
	"memverify/internal/shard"
)

// wireLog records the ops of every batch request that reaches the
// service, as the service decodes them.
type wireLog struct {
	mu      sync.Mutex
	batches [][]service.Op
}

func (l *wireLog) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/batch") {
			body, err := io.ReadAll(r.Body)
			if err == nil {
				if ops, err := service.DecodeRequest(bytes.NewReader(body), 0, 0); err == nil {
					l.mu.Lock()
					l.batches = append(l.batches, ops)
					l.mu.Unlock()
				}
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		next.ServeHTTP(w, r)
	})
}

// expectLast fails t unless the last batch on the wire is exactly want:
// the same kinds, offsets and lengths, and the same payload for writes.
func (l *wireLog) expectLast(t *testing.T, what string, want []service.Op) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.batches) == 0 {
		t.Fatalf("%s: no batch reached the service", what)
	}
	got := l.batches[len(l.batches)-1]
	if len(got) != len(want) {
		t.Fatalf("%s: %d ops on the wire, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Write != w.Write || g.Off != w.Off || len(g.Data) != len(w.Data) ||
			w.Write && !bytes.Equal(g.Data, w.Data) {
			t.Fatalf("%s: op %d on the wire is write=%t off=%d len=%d, want write=%t off=%d len=%d",
				what, i, g.Write, g.Off, len(g.Data), w.Write, w.Off, len(w.Data))
		}
	}
}

func dialT(t *testing.T, url, tenant string) *Client {
	t.Helper()
	c, err := Dial(url, tenant)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestBatchRoundTripAllocs pins what a 16-op Store/Load/Wait round trip
// allocates, client and in-process service together, and the two
// ownership contracts the batch path rests on: Store copies its payload
// at call time, and Wait lets go of every Load destination.
func TestBatchRoundTripAllocs(t *testing.T) {
	_, ts := startService(t, service.Config{Tenants: []service.TenantConfig{
		{Name: "pin", Store: shard.Config{Machine: testMachine(core.SchemeCached, "record"), Shards: 2}},
	}})
	c := dialT(t, ts.URL, "pin")
	b := c.NewBatch()

	// Store copies at call time.
	p := bytes.Repeat([]byte{0x3C}, 96)
	b.Store(100, p)
	for i := range p {
		p[i] = 0xC3
	}
	got := make([]byte, 96)
	b.Load(100, got)
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{0x3C}, 96)) {
		t.Fatal("mutating a stored buffer after Store changed what the server holds")
	}
	// Wait holds no Load destination.
	for i, op := range b.ops[:cap(b.ops)] {
		if op.Data != nil {
			t.Fatalf("after Wait, the batch still references op %d's buffer", i)
		}
	}

	pay := make([]byte, 64)
	dst := make([][]byte, 8)
	for i := range dst {
		dst[i] = make([]byte, 64)
	}
	round := func() {
		for i := 0; i < 8; i++ {
			b.Store(uint64(i)*4096, pay)
			b.Load(uint64(i)*4096+1024, dst[i])
		}
		if err := b.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	round()
	// Measured 20 with Go 1.24 on linux/amd64 (21 while net/http drained
	// the batch body after the handler, 23 while the request head carried
	// a Content-Type, 38 while the client read heads with
	// http.ReadResponse and the reply set its Content-Type):
	// DecodeResponse's header on the client's side, the net/http server's
	// request and response on the other, and nothing per op. The slack
	// absorbs net/http's drift between Go releases and the race
	// detector's random sync.Pool drops.
	const bound = 30
	if n := testing.AllocsPerRun(200, round); n > bound {
		t.Errorf("a 16-op round trip allocates %.1f times, bound %d", n, bound)
	}
}

// TestWaitAllocs pins what the client allocates for one 16-op Wait
// against a daemon that allocates nothing (an unscripted fakeDaemon). The
// connection pool, the head reader and the Content-Length body held in
// the connection allocate nothing per batch, and service.DecodeResponse
// reads the response header through the body's ReadByte, so a Wait
// allocates nothing. A chunked reply adds the chunk decoder and a heap
// header, and is logged.
func TestWaitAllocs(t *testing.T) {
	body := make([]byte, 8+8*64)
	copy(body, "MVR1")
	binary.LittleEndian.PutUint32(body[4:], 16)
	for _, tc := range []struct {
		name  string
		reply string
		pin   bool
	}{
		{"Content-Length", fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(body), body), true},
		{"chunked", fmt.Sprintf("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n", len(body), body), false},
	} {
		c := dialT(t, startFake(t, tc.reply).ln.Addr().String(), "fake")
		b := c.NewBatch()
		pay := make([]byte, 64)
		dst := make([][]byte, 8)
		for i := range dst {
			dst[i] = make([]byte, 64)
		}
		round := func() {
			for i := 0; i < 8; i++ {
				b.Store(uint64(i)*4096, pay)
				b.Load(uint64(i)*4096+1024, dst[i])
			}
			if err := b.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		round()
		n := testing.AllocsPerRun(200, round)
		// Measured 0 with Go 1.24 on linux/amd64 (1 when DecodeResponse
		// read its header into an escaping array; reading the head with
		// http.ReadResponse instead, the same Wait allocated 9 times, 11
		// for the chunked reply).
		if tc.pin && n != 0 {
			t.Errorf("%s: a 16-op Wait allocates %.1f times, want 0", tc.name, n)
		}
		t.Logf("%s: %.1f allocations per 16-op Wait", tc.name, n)
	}
}

// TestMidBatchDisconnect: a peer that sends a batch's headers and half its
// body, then hangs up, applies none of its ops, leaves the tenant serving
// and leaves no goroutine behind.
func TestMidBatchDisconnect(t *testing.T) {
	_, ts := startService(t, service.Config{Tenants: []service.TenantConfig{
		{Name: "cut", Store: shard.Config{Machine: testMachine(core.SchemeCached, "record"), Shards: 2}},
	}})
	c := dialT(t, ts.URL, "cut")
	want := bytes.Repeat([]byte{0x5A}, 512)
	if err := c.StoreBytes(0, want); err != nil {
		t.Fatal(err)
	}
	start := runtime.NumGoroutine()

	ff := bytes.Repeat([]byte{0xFF}, 256)
	body := service.EncodeRequest([]service.Op{
		{Write: true, Off: 0, Data: ff},
		{Write: true, Off: 256, Data: ff},
	})
	addr := ts.Listener.Addr().String()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "POST /v1/t/cut/batch HTTP/1.1\r\nHost: %s\r\n"+
		"Content-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\n", addr, len(body))
	if _, err := conn.Write(body[:len(body)/2]); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the disconnect, %d before:\n%s",
				runtime.NumGoroutine(), start, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}

	got := make([]byte, len(want))
	if err := c.LoadBytes(0, got); err != nil {
		t.Fatalf("read-back after the disconnect: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("an op of the half-sent batch was applied")
	}
	next := bytes.Repeat([]byte{0x77}, 300)
	if err := c.StoreBytes(1000, next); err != nil {
		t.Fatalf("tenant stopped serving after the disconnect: %v", err)
	}
	if err := c.LoadBytes(1000, got[:300]); err != nil || !bytes.Equal(got[:300], next) {
		t.Fatalf("tenant stopped serving after the disconnect: %v", err)
	}
}

// TestPooledStateIsolation: concurrent batches through the service's
// pooled per-request state each read back exactly their own bytes, and a
// Batch reused after each failure kind sends only its new ops.
func TestPooledStateIsolation(t *testing.T) {
	var log wireLog
	svc, ts := startWrapped(t, service.Config{
		Tenants: []service.TenantConfig{
			{Name: "iso", Store: shard.Config{Machine: testMachine(core.SchemeCached, "record"), Shards: 2}},
		},
		MaxBatchOps:  32,
		AdmitTimeout: 20 * time.Millisecond,
		AllowTamper:  true,
	}, log.wrap)
	c := dialT(t, ts.URL, "iso")

	const workers = 8
	stripe := c.Span() / workers
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs <- isolatedWorker(c, w, uint64(w)*stripe, stripe)
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Reuse after each failure kind: the next Wait sends its own ops and
	// nothing of the failed batch.
	b := c.NewBatch()
	var apiErr *service.APIError
	span := c.ShardSpan()
	reuse := func(what string, off uint64) {
		t.Helper()
		pay := bytes.Repeat([]byte{byte(off)}, 40)
		dst := make([]byte, 40)
		b.Store(off, pay)
		b.Load(off, dst)
		if err := b.Wait(); err != nil {
			t.Fatalf("%s: reused batch: %v", what, err)
		}
		if !bytes.Equal(dst, pay) {
			t.Fatalf("%s: reused batch read %x, want %x", what, dst, pay)
		}
		log.expectLast(t, what, []service.Op{{Write: true, Off: off, Data: pay}, {Off: off, Data: dst}})
	}

	for i := 0; i < 33; i++ {
		b.Load(uint64(i), make([]byte, 1))
	}
	if err := b.Wait(); !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("oversized batch: %v, want a 400", err)
	}
	reuse("after 400", span+64)

	c.RetryBudget = 30 * time.Millisecond
	release := svc.HoldAdmission("iso")
	b.Store(span+128, []byte{1, 2, 3})
	err := b.Wait()
	release()
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("held tenant: %v, want a 429", err)
	}
	reuse("after 429", span+256)

	if err := c.Tamper(0, 0, 0xFF); err != nil {
		t.Fatal(err)
	}
	b.Load(0, make([]byte, 8))
	if err := b.Wait(); !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("tampered read: %v, want a 503", err)
	}
	reuse("after 503", span+512)
}

// isolatedWorker drives one stripe with its own Batch and byte pattern,
// checking every read against a mirror of what it wrote.
func isolatedWorker(c *Client, w int, base, stripe uint64) error {
	rng := rand.New(rand.NewSource(int64(w) + 1))
	mirror := make([]byte, stripe)
	b := c.NewBatch()
	type read struct {
		off       uint64
		got, want []byte
	}
	var reads []read
	for batch := 0; batch < 40; batch++ {
		for i := 0; i < 16; i++ {
			n := 1 + rng.Intn(200)
			off := rng.Uint64() % (stripe - uint64(n))
			if rng.Intn(2) == 0 {
				p := make([]byte, n)
				for j := range p {
					p[j] = byte(w<<5) ^ byte(batch+i+j)
				}
				b.Store(base+off, p)
				copy(mirror[off:], p)
			} else {
				r := read{off: base + off, got: make([]byte, n),
					want: append([]byte(nil), mirror[off:off+uint64(n)]...)}
				b.Load(r.off, r.got)
				reads = append(reads, r)
			}
		}
		if err := b.Wait(); err != nil {
			return fmt.Errorf("worker %d batch %d: %w", w, batch, err)
		}
		for _, r := range reads {
			if !bytes.Equal(r.got, r.want) {
				return fmt.Errorf("worker %d batch %d: read at %d got another batch's bytes", w, batch, r.off)
			}
		}
		reads = reads[:0]
	}
	return nil
}

// TestBatchSurvivesTransportError: a server that drops a reused
// keep-alive connection mid-request fails that Wait without the batch
// being sent again, and the next Wait on the same Batch sends only its own
// ops and succeeds.
func TestBatchSurvivesTransportError(t *testing.T) {
	var log wireLog
	var mu sync.Mutex
	var peers []string // the client address each batch arrived from
	_, ts := startWrapped(t, service.Config{Tenants: []service.TenantConfig{
		{Name: "drop", Store: shard.Config{Machine: testMachine(core.SchemeCached, "record"), Shards: 2}},
	}}, func(next http.Handler) http.Handler {
		logged := log.wrap(next)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/batch") {
				mu.Lock()
				peers = append(peers, r.RemoteAddr)
				n := len(peers)
				mu.Unlock()
				if n == 2 {
					conn, _, err := w.(http.Hijacker).Hijack()
					if err == nil {
						conn.Close()
					}
					return
				}
			}
			logged.ServeHTTP(w, r)
		})
	})
	c := dialT(t, ts.URL, "drop")

	b := c.NewBatch()
	first := bytes.Repeat([]byte{0x11}, 100)
	b.Store(20000, first)
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	lost := bytes.Repeat([]byte{0xEE}, 64<<10)
	b.Store(0, lost)
	if err := b.Wait(); err == nil {
		t.Fatal("Wait succeeded over a dropped connection")
	}
	arrived := func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), peers...)
	}
	if p := arrived(); len(p) != 2 || p[1] != p[0] {
		t.Fatalf("batches arrived from %v: the dropped one did not reuse the first one's connection", p)
	}

	pay := bytes.Repeat([]byte{0x42}, 300)
	got := make([]byte, 4000)
	b.Store(8000, pay)
	b.Load(0, got)
	if err := b.Wait(); err != nil {
		t.Fatalf("Wait after the transport error: %v", err)
	}
	if !bytes.Equal(got, make([]byte, len(got))) {
		t.Fatal("the dropped batch's write was applied")
	}
	if p := arrived(); len(p) != 3 {
		t.Fatalf("%d batches reached the server for 3 Waits: the dropped one was sent again", len(p))
	}
	log.expectLast(t, "after the transport error",
		[]service.Op{{Write: true, Off: 8000, Data: pay}, {Off: 0, Data: got}})
}

// TestBatchAfterIdleClose: a pooled connection the server closed while it
// sat idle is found and replaced before the write, so the next Wait
// succeeds and its batch is applied exactly once.
func TestBatchAfterIdleClose(t *testing.T) {
	var log wireLog
	var closed atomic.Int32
	_, ts := startServer(t, service.Config{Tenants: []service.TenantConfig{
		{Name: "idle", Store: shard.Config{Machine: testMachine(core.SchemeCached, "record"), Shards: 2}},
	}}, log.wrap, func(s *http.Server) {
		s.IdleTimeout = 50 * time.Millisecond
		s.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateClosed {
				closed.Add(1)
			}
		}
	})
	c := dialT(t, ts.URL, "idle")
	b := c.NewBatch()
	b.Store(0, []byte{1})
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for closed.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the server never closed the idle connection")
		}
		time.Sleep(10 * time.Millisecond)
	}

	pay := bytes.Repeat([]byte{0x5C}, 200)
	got := make([]byte, len(pay))
	b.Store(4096, pay)
	b.Load(4096, got)
	if err := b.Wait(); err != nil {
		t.Fatalf("Wait after the server closed the pooled connection: %v", err)
	}
	if !bytes.Equal(got, pay) {
		t.Fatalf("read back %x, want %x", got, pay)
	}
	log.mu.Lock()
	n := len(log.batches)
	log.mu.Unlock()
	if n != 2 {
		t.Fatalf("%d batches reached the service for 2 Waits", n)
	}
	log.expectLast(t, "after the idle close",
		[]service.Op{{Write: true, Off: 4096, Data: pay}, {Off: 4096, Data: got}})
}

// TestBatchEarlyRefusal: a batch over the daemon's byte limit is refused
// on its first op, before the server reads the rest of the body, and the
// server closes the connection under the write. Wait reports the typed
// 400, not the write error, and the same Batch works on.
func TestBatchEarlyRefusal(t *testing.T) {
	_, ts := startService(t, service.Config{
		Tenants: []service.TenantConfig{
			{Name: "limit", Store: shard.Config{Machine: testMachine(core.SchemeCached, "record"), Shards: 2}},
		},
		MaxBatchBytes: 64 << 10,
	})
	c := dialT(t, ts.URL, "limit")
	b := c.NewBatch()
	b.Store(0, make([]byte, 4<<20))
	var apiErr *service.APIError
	if err := b.Wait(); !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Kind != service.KindBadRequest {
		t.Fatalf("a 4 MiB store against a 64 KiB limit: %v, want the typed 400", err)
	}

	pay := bytes.Repeat([]byte{0x3A}, 500)
	got := make([]byte, len(pay))
	b.Store(100, pay)
	b.Load(100, got)
	if err := b.Wait(); err != nil {
		t.Fatalf("Wait after the refusal: %v", err)
	}
	if !bytes.Equal(got, pay) {
		t.Fatal("the batch after the refusal read back the wrong bytes")
	}
}

// fakeReply is one scripted answer of a fakeDaemon; hangUp closes the
// connection after it.
type fakeReply struct {
	raw    string
	hangUp bool
}

// fakeDaemon is a raw-socket stand-in for memverifyd. It lists one tenant
// and answers each batch, once it has read all of it, with the next
// scripted reply, or with its batch reply when the script is empty. It
// reads each request into one fixed buffer and parses it by hand, so
// unscripted, it allocates nothing per request.
type fakeDaemon struct {
	ln       net.Listener
	listing  []byte // the reply to GET /v1/tenants
	batch    []byte
	accepted atomic.Int32
	wg       sync.WaitGroup

	mu     sync.Mutex
	script []fakeReply
	conns  []net.Conn
}

// mvr1 is the response body to a one-write batch.
const mvr1 = "MVR1\x01\x00\x00\x00"

func startFake(t *testing.T, batch string) *fakeDaemon {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	info, err := json.Marshal([]service.TenantInfo{{Name: "fake", Shards: 1, Span: 1 << 20, ShardSpan: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeDaemon{ln: ln, batch: []byte(batch),
		listing: fmt.Appendf(nil, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(info), info)}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			f.accepted.Add(1)
			f.mu.Lock()
			f.conns = append(f.conns, nc)
			f.mu.Unlock()
			f.wg.Add(1)
			go f.serve(nc)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		f.mu.Lock()
		for _, nc := range f.conns {
			nc.Close()
		}
		f.mu.Unlock()
		f.wg.Wait()
	})
	return f
}

func (f *fakeDaemon) serve(nc net.Conn) {
	defer f.wg.Done()
	defer nc.Close()
	buf := make([]byte, 64<<10)
	have := 0
	for {
		// Read one request: its head, then as many bytes as its
		// Content-Length says.
		end, length := -1, 0
		for end < 0 || have < end+length {
			if have == len(buf) {
				return
			}
			n, err := nc.Read(buf[have:])
			if err != nil {
				return
			}
			have += n
			if end < 0 {
				if end = bytes.Index(buf[:have], []byte("\r\n\r\n")); end >= 0 {
					end += 4
					length = requestLength(buf[:end])
				}
			}
		}
		reply, hangUp := f.batch, false
		if bytes.HasPrefix(buf, []byte("GET ")) {
			reply = f.listing
		} else {
			f.mu.Lock()
			if len(f.script) > 0 {
				reply, hangUp = []byte(f.script[0].raw), f.script[0].hangUp
				f.script = f.script[1:]
			}
			f.mu.Unlock()
		}
		if _, err := nc.Write(reply); err != nil || hangUp {
			return
		}
		have = copy(buf, buf[end+length:have])
	}
}

// requestLength is the Content-Length of a request head the client wrote,
// 0 if it has none.
func requestLength(head []byte) int {
	const field = "\r\nContent-Length: "
	i := bytes.Index(head, []byte(field))
	if i < 0 {
		return 0
	}
	n := 0
	for _, c := range head[i+len(field):] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// waitWithin is b.Wait, failing t if it has not returned within d.
func waitWithin(t *testing.T, b *Batch, d time.Duration) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- b.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("Wait still blocked after %v", d)
		return nil
	}
}

// TestBatchBrokenResponses: a response that is cut short or malformed
// fails its Wait, one that is well framed succeeds, none of them hangs, and
// a connection goes back to the pool only if it stands at the next
// response.
func TestBatchBrokenResponses(t *testing.T) {
	const halted = `{"error":"shard 0 halted","kind":"halted","tenant":"fake"}`
	f := startFake(t, "HTTP/1.1 200 OK\r\nContent-Length: 8\r\n\r\n"+mvr1)
	c := dialT(t, f.ln.Addr().String(), "fake")
	b := c.NewBatch()
	for _, tc := range []struct {
		name   string
		reply  fakeReply
		ok     bool // Wait succeeds
		pooled bool // the connection carries the next batch
	}{
		{"short body", fakeReply{"HTTP/1.1 200 OK\r\nContent-Length: 64\r\n\r\n" + mvr1, true}, false, false},
		{"chunked", fakeReply{"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n8\r\n" + mvr1 + "\r\n0\r\n\r\n", false}, true, true},
		// The fake leaves this one open: the header alone must retire it.
		{"connection close", fakeReply{"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 8\r\n\r\n" + mvr1, false}, true, false},
		{"garbage status line", fakeReply{"MVR1 200 OK\r\n\r\n", false}, false, false},
		{"mixed-case names", fakeReply{"HTTP/1.1 200 OK\r\ncontent-LENGTH: 8\r\ncOnNeCtIoN: keep-alive\r\n\r\n" + mvr1, false}, true, true},
		{"mixed-case close", fakeReply{"HTTP/1.1 200 OK\r\nCONTENT-LENGTH: 8\r\nCONNECTION: Upgrade, CLOSE\r\n\r\n" + mvr1, false}, true, false},
		{"no reason phrase", fakeReply{"HTTP/1.1 200\r\nContent-Length: 8\r\n\r\n" + mvr1, false}, true, true},
		{"chunked with a trailer field", fakeReply{"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\n" + mvr1[:3] + "\r\n5\r\n" + mvr1[3:] + "\r\n0\r\nX-Checksum: 1f\r\n\r\n", false}, true, true},
		{"error status with a JSON body", fakeReply{fmt.Sprintf("HTTP/1.1 503 Service Unavailable\r\nContent-Length: %d\r\n\r\n%s", len(halted), halted), false}, false, true},
		{"Content-Length and chunked", fakeReply{"HTTP/1.1 200 OK\r\nContent-Length: 8\r\nTransfer-Encoding: chunked\r\n\r\n8\r\n" + mvr1 + "\r\n0\r\n\r\n", false}, false, false},
		{"negative length", fakeReply{"HTTP/1.1 200 OK\r\nContent-Length: -8\r\n\r\n" + mvr1, false}, false, false},
		{"non-numeric length", fakeReply{"HTTP/1.1 200 OK\r\nContent-Length: 8 bytes\r\n\r\n" + mvr1, false}, false, false},
		{"no length", fakeReply{"HTTP/1.1 200 OK\r\n\r\n" + mvr1, false}, false, false},
		{"unknown transfer coding", fakeReply{"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n" + mvr1, false}, false, false},
		{"HTTP/1.0", fakeReply{"HTTP/1.0 200 OK\r\nContent-Length: 8\r\n\r\n" + mvr1, false}, false, false},
	} {
		f.mu.Lock()
		f.script = append(f.script, tc.reply)
		f.mu.Unlock()
		before := f.accepted.Load()
		b.Store(0, []byte{1})
		if err := waitWithin(t, b, 10*time.Second); (err == nil) != tc.ok {
			t.Fatalf("%s: Wait returned %v, want success %t", tc.name, err, tc.ok)
		}
		// The pool held one connection, which this Wait took.
		c.mu.Lock()
		idle := len(c.idle)
		c.mu.Unlock()
		if (idle == 1) != tc.pooled {
			t.Errorf("%s: %d connections pooled after the Wait, want pooled=%t", tc.name, idle, tc.pooled)
		}
		b.Store(0, []byte{2})
		if err := waitWithin(t, b, 10*time.Second); err != nil {
			t.Fatalf("%s: the next Wait: %v", tc.name, err)
		}
		if dialed := f.accepted.Load() - before; (dialed == 0) != tc.pooled {
			t.Errorf("%s: the next Wait dialed %d connections, want the connection pooled=%t", tc.name, dialed, tc.pooled)
		}
	}
}

// TestClientCloseReleasesConnections: Close closes every pooled
// connection, which the server sees closed, and leaves no goroutine
// behind; Dial refuses any scheme but http.
func TestClientCloseReleasesConnections(t *testing.T) {
	var opened, closed atomic.Int32
	_, ts := startServer(t, service.Config{Tenants: []service.TenantConfig{
		{Name: "close", Store: shard.Config{Machine: testMachine(core.SchemeCached, "record"), Shards: 2}},
	}}, func(h http.Handler) http.Handler { return h }, func(s *http.Server) {
		s.ConnState = func(_ net.Conn, st http.ConnState) {
			switch st {
			case http.StateNew:
				opened.Add(1)
			case http.StateClosed:
				closed.Add(1)
			}
		}
	})
	start := runtime.NumGoroutine()
	c, err := Dial(ts.URL, "close")
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent batches leave several connections in the pool.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := c.NewBatch()
			for i := 0; i < 20; i++ {
				b.Store(uint64(w)*1024, []byte{byte(i)})
				if err := b.Wait(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for closed.Load() < opened.Load() || runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("after Close: %d of %d connections closed, %d goroutines against %d before Dial:\n%s",
				closed.Load(), opened.Load(), runtime.NumGoroutine(), start, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}

	for _, base := range []string{"https://" + ts.Listener.Addr().String(), "ftp://" + ts.Listener.Addr().String()} {
		if c, err := Dial(base, "close"); err == nil {
			c.Close()
			t.Errorf("Dial(%q) succeeded, want it refused", base)
		}
	}
}
