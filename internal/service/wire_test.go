package service

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"

	"memverify/internal/core"
)

// TestBatchReplyWireContract pins what a batch reply looks like on the
// wire, read from a raw keep-alive connection: a 200 with Content-Type
// application/octet-stream, which net/http's sniffer supplies because the
// handler sets no header, framed by Content-Length while the reply fits
// net/http's 2 KiB response buffer and chunked above it. The service never
// reads a request's Content-Type: each batch goes once with none, as the
// client sends it, and once with application/octet-stream, and both get
// the same reply. Every batch goes on the one connection: the handler
// closes a body its decode read to EOF, so net/http has nothing to drain
// after it, and no reply may close the connection. The last leg is a
// store and a load of what it stored, back to back.
func TestBatchReplyWireContract(t *testing.T) {
	_, ts := newTestService(t, Config{Tenants: []TenantConfig{
		testTenant("wire", core.SchemeCached, "record", 2),
	}})
	addr := ts.Listener.Addr().String()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	for _, tc := range []struct {
		n  int
		ct string
	}{
		{0, ""}, {1, ""}, {1, "Content-Type: application/octet-stream\r\n"}, {2, ""},
		{100, ""}, {100, "Content-Type: application/octet-stream\r\n"}, {DefaultMaxBatchOps, ""},
	} {
		n, what := tc.n, fmt.Sprintf("%d ops, no Content-Type", tc.n)
		if tc.ct != "" {
			what = fmt.Sprintf("%d ops, Content-Type set", tc.n)
		}
		ops := make([]Op, n)
		for i := range ops {
			ops[i] = Op{Off: uint64(i%2048) * 64, Data: make([]byte, 64)}
		}
		body := EncodeRequest(ops)
		fmt.Fprintf(nc, "POST /v1/t/wire/batch HTTP/1.1\r\nHost: %s\r\n%sContent-Length: %d\r\n\r\n", addr, tc.ct, len(body))
		if _, err := nc.Write(body); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: reading the body: %v", what, err)
		}
		if resp.StatusCode != http.StatusOK || resp.Close {
			t.Fatalf("%s: status %d, Connection: close %v: %s", what, resp.StatusCode, resp.Close, raw)
		}
		if ct := resp.Header.Values("Content-Type"); len(ct) != 1 || ct[0] != "application/octet-stream" {
			t.Errorf("%s: Content-Type %q, want application/octet-stream", what, ct)
		}
		size := 8 + 64*n
		chunked := len(resp.TransferEncoding) == 1 && resp.TransferEncoding[0] == "chunked"
		if size <= 2048 && (chunked || resp.ContentLength != int64(size)) ||
			size > 2048 && !chunked {
			t.Errorf("%s: a %d-byte reply came as Content-Length %d, Transfer-Encoding %q",
				what, size, resp.ContentLength, resp.TransferEncoding)
		}
		if err := DecodeResponse(bytes.NewReader(raw), ops); err != nil || len(raw) != size {
			t.Errorf("%s: %d-byte body (want %d): %v", what, len(raw), size, err)
		}
	}

	stored := bytes.Repeat([]byte{0x5A}, 64)
	for _, op := range []Op{{Write: true, Off: 4096, Data: stored}, {Off: 4096, Data: make([]byte, 64)}} {
		body := EncodeRequest([]Op{op})
		fmt.Fprintf(nc, "POST /v1/t/wire/batch HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\n\r\n", addr, len(body))
		if _, err := nc.Write(body); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("write=%v on the reused connection: %v", op.Write, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || resp.Close {
			t.Fatalf("write=%v: status %d, Connection: close %v, %v: %s", op.Write, resp.StatusCode, resp.Close, err, raw)
		}
		if err := DecodeResponse(bytes.NewReader(raw), []Op{op}); err != nil || !bytes.Equal(op.Data, stored) {
			t.Fatalf("write=%v: read back %x (%v), want what the store wrote", op.Write, op.Data[:4], err)
		}
	}
}

// TestNewRefusesUnsniffableBatchLimit: a batch limit of 2^24 ops or more
// would let a reply's op count end in a non-zero byte, and its sniffed
// Content-Type could stop being application/octet-stream, so New refuses
// it and names the field.
func TestNewRefusesUnsniffableBatchLimit(t *testing.T) {
	for _, ops := range []int{1 << 24, 1<<24 + 1, 1 << 30} {
		_, err := New(Config{Tenants: []TenantConfig{testTenant("t0", core.SchemeCached, "record", 1)}, MaxBatchOps: ops})
		if err == nil || !strings.Contains(err.Error(), "MaxBatchOps") {
			t.Errorf("MaxBatchOps %d: %v, want a refusal naming the field", ops, err)
		}
	}
	svc, err := New(Config{Tenants: []TenantConfig{testTenant("t0", core.SchemeCached, "record", 1)}, MaxBatchOps: 1<<24 - 1})
	if err != nil {
		t.Fatalf("MaxBatchOps 2^24-1: %v", err)
	}
	svc.Close()
	if got := http.DetectContentType([]byte("MVR1\xff\xff\xff\x00")); got != "application/octet-stream" {
		t.Errorf("the largest accepted count sniffs as %q", got)
	}
}
