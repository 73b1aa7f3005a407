package client

import (
	"bytes"
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
	// Measured 76 with Go 1.24 on linux/amd64; the client over
	// http.Client.Post, per-op payload copies and a per-request decode took
	// 129. Almost all of the 76 is net/http's own per-request work on both
	// ends; the slack absorbs its drift between Go releases and the race
	// detector's random sync.Pool drops.
	const bound = 90
	if n := testing.AllocsPerRun(200, round); n > bound {
		t.Errorf("a 16-op round trip allocates %.1f times, bound %d", n, bound)
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

// TestBatchSurvivesTransportError: a server that drops the connection
// mid-request fails that Wait, and the next Wait on the same Batch — on
// a request, reader and buffer the failed round trip never saw — sends
// only its own ops and succeeds.
func TestBatchSurvivesTransportError(t *testing.T) {
	var log wireLog
	var batches atomic.Int32
	_, ts := startWrapped(t, service.Config{Tenants: []service.TenantConfig{
		{Name: "drop", Store: shard.Config{Machine: testMachine(core.SchemeCached, "record"), Shards: 2}},
	}}, func(next http.Handler) http.Handler {
		logged := log.wrap(next)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/batch") && batches.Add(1) == 1 {
				conn, _, err := w.(http.Hijacker).Hijack()
				if err == nil {
					conn.Close()
				}
				return
			}
			logged.ServeHTTP(w, r)
		})
	})
	c := dialT(t, ts.URL, "drop")

	b := c.NewBatch()
	lost := bytes.Repeat([]byte{0xEE}, 64<<10)
	b.Store(0, lost)
	if err := b.Wait(); err == nil {
		t.Fatal("Wait succeeded over a dropped connection")
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
	log.expectLast(t, "after the transport error",
		[]service.Op{{Write: true, Off: 8000, Data: pay}, {Off: 0, Data: got}})
}
