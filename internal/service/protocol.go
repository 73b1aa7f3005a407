// Package service is the networked front-end over a set of sharded
// verification stores: a multi-tenant HTTP service speaking a compact
// binary batch protocol, with per-tenant integrity containment (one
// tenant's violation 503s only that tenant), admission-controlled
// backpressure mapped onto the bounded shard queues, and optional
// crash-consistent persistence per tenant.
//
// The wire protocol is deliberately small. A batch request is
//
//	"MVB1" | nops(u32) | op*
//	op    = kind(u8: 0=read, 1=write) | off(u64) | len(u32) | payload (writes only)
//
// and a successful response is
//
//	"MVR1" | nops(u32) | payload*   (read payloads, in op order)
//
// all integers little-endian. Every non-200 response carries a JSON error
// envelope {"error": ..., "kind": ..., "tenant": ...}; the kind strings
// and status codes are the containment contract (see APIError).
package service

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// Wire magics: batch request and batch response, version 1.
var (
	reqMagic  = [4]byte{'M', 'V', 'B', '1'}
	respMagic = [4]byte{'M', 'V', 'R', '1'}
)

// Op is one operation of a batch. For writes Data is the payload; for
// reads Data is the destination buffer whose length is the read size
// (the decoder carves it from the request's arena server-side, the client
// passes the caller's buffer so DecodeResponse fills it in place).
type Op struct {
	Write bool
	Off   uint64
	Data  []byte
}

// Default request bounds; Config can override.
const (
	DefaultMaxBatchOps   = 8192
	DefaultMaxBatchBytes = 8 << 20
)

// RequestHeaderSize is the length of an MVB1 request's header: the magic
// and the op count.
const RequestHeaderSize = 8

const opHeaderSize = 1 + 8 + 4

// PutRequestHeader writes the MVB1 header for nops ops into
// buf[:RequestHeaderSize].
func PutRequestHeader(buf []byte, nops int) {
	copy(buf, reqMagic[:])
	binary.LittleEndian.PutUint32(buf[4:RequestHeaderSize], uint32(nops))
}

// AppendOp appends op's MVB1 encoding to buf: its header and, for a
// write, its payload.
func AppendOp(buf []byte, op Op) []byte {
	kind := byte(0)
	if op.Write {
		kind = 1
	}
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint64(buf, op.Off)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(op.Data)))
	if op.Write {
		buf = append(buf, op.Data...)
	}
	return buf
}

// EncodeRequest renders ops into the MVB1 wire form.
func EncodeRequest(ops []Op) []byte {
	n := RequestHeaderSize
	for _, op := range ops {
		n += opHeaderSize
		if op.Write {
			n += len(op.Data)
		}
	}
	buf := make([]byte, RequestHeaderSize, n)
	PutRequestHeader(buf, len(ops))
	for _, op := range ops {
		buf = AppendOp(buf, op)
	}
	return buf
}

// DecodeRequest parses an MVB1 request, allocating destination buffers
// for reads, and enforces the op-count and total-payload bounds (<= 0
// selects the defaults). It is the one-shot form of the decoder the
// service runs on pooled per-request state.
func DecodeRequest(r io.Reader, maxOps, maxBytes int) ([]Op, error) {
	var d decoded
	if err := d.decode(r, maxOps, maxBytes); err != nil {
		return nil, err
	}
	return d.ops, nil
}

// minArena is the first arena a decoder allocates (or the whole batch
// limit, if that is smaller).
const minArena = 1 << 10

// decoded is one request's ops and the arena behind their Data: write
// payloads and read destinations back to back, in op order. The service
// pools it, so a steady stream of batches decodes without allocating.
type decoded struct {
	ops   []Op
	arena []byte
	hdr   [opHeaderSize]byte // read buffer for the headers; a local would escape
}

// decode parses an MVB1 request into d, reusing d's op slice and arena.
// The arena grows by doubling but never past maxBytes, and only once the
// op that needs the room has been counted against that limit, so a
// request costs at most its limits whatever its header claims.
func (d *decoded) decode(r io.Reader, maxOps, maxBytes int) error {
	if maxOps <= 0 {
		maxOps = DefaultMaxBatchOps
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBatchBytes
	}
	d.ops, d.arena = d.ops[:0], d.arena[:0]
	hdr := d.hdr[:RequestHeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return fmt.Errorf("request header: %w", err)
	}
	if [4]byte(hdr[:4]) != reqMagic {
		return fmt.Errorf("bad request magic %q (want %q)", hdr[:4], reqMagic[:])
	}
	nops := int(binary.LittleEndian.Uint32(hdr[4:]))
	if nops > maxOps {
		return fmt.Errorf("%d ops exceeds the per-batch limit %d", nops, maxOps)
	}
	if cap(d.ops) < nops {
		d.ops = make([]Op, 0, nops)
	}
	oh := d.hdr[:]
	for i := 0; i < nops; i++ {
		if _, err := io.ReadFull(r, oh); err != nil {
			return fmt.Errorf("op %d header: %w", i, err)
		}
		op := Op{
			Write: oh[0] != 0,
			Off:   binary.LittleEndian.Uint64(oh[1:9]),
		}
		if oh[0] > 1 {
			return fmt.Errorf("op %d: unknown kind %d", i, oh[0])
		}
		length := int(binary.LittleEndian.Uint32(oh[9:13]))
		start := len(d.arena)
		if length > maxBytes-start {
			return fmt.Errorf("batch payload exceeds the %d-byte limit", maxBytes)
		}
		d.grow(length, maxBytes)
		d.arena = d.arena[:start+length]
		op.Data = d.arena[start:]
		if op.Write {
			if _, err := io.ReadFull(r, op.Data); err != nil {
				return fmt.Errorf("op %d payload: %w", i, err)
			}
		}
		d.ops = append(d.ops, op)
	}
	// The declared count covers the whole body: a byte past the last op
	// means the header under-counts, and the ops after it would be dropped.
	if _, err := io.ReadFull(r, oh[:1]); err != io.EOF {
		if err == nil {
			return fmt.Errorf("trailing bytes after the declared %d ops", nops)
		}
		return fmt.Errorf("after op %d: %w", nops, err)
	}
	// Growth copied the arena; rebind every op to the final one, each
	// capped at its own length.
	pos := 0
	for i := range d.ops {
		n := len(d.ops[i].Data)
		d.ops[i].Data = d.arena[pos : pos+n : pos+n]
		pos += n
	}
	return nil
}

// grow makes room for n more arena bytes, doubling up to limit.
func (d *decoded) grow(n, limit int) {
	need := len(d.arena) + n
	if need <= cap(d.arena) {
		return
	}
	arena := make([]byte, len(d.arena), min(max(2*cap(d.arena), need, minArena), limit))
	copy(arena, d.arena)
	d.arena = arena
}

// EncodeResponse writes the MVR1 success response for ops: the header and
// then every read op's (now filled) buffer, in op order.
func EncodeResponse(w io.Writer, ops []Op) error {
	var hdr [8]byte
	copy(hdr[:4], respMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(ops)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, op := range ops {
		if op.Write {
			continue
		}
		if _, err := w.Write(op.Data); err != nil {
			return err
		}
	}
	return nil
}

// DecodeResponse parses an MVR1 response against the ops that produced
// it, filling each read op's Data buffer in place.
func DecodeResponse(r io.Reader, ops []Op) error {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("response header: %w", err)
	}
	if [4]byte(hdr[:4]) != respMagic {
		return fmt.Errorf("bad response magic %q (want %q)", hdr[:4], respMagic[:])
	}
	if got := int(binary.LittleEndian.Uint32(hdr[4:])); got != len(ops) {
		return fmt.Errorf("response covers %d ops, batch submitted %d", got, len(ops))
	}
	for i := range ops {
		if ops[i].Write {
			continue
		}
		if _, err := io.ReadFull(r, ops[i].Data); err != nil {
			return fmt.Errorf("read op %d payload: %w", i, err)
		}
	}
	return nil
}

// Error kinds carried in the JSON envelope. They are the machine-readable
// half of the containment contract: a client distinguishes "this tenant
// is compromised" (violation/halted) from "slow down" (busy) from "the
// service is going away" (closed) without parsing prose.
const (
	KindViolation     = "violation"      // 503: integrity violation detected
	KindHalted        = "halted"         // 503: the tenant's halt policy tripped
	KindClosed        = "closed"         // 503: store shutting down
	KindBusy          = "busy"           // 429: admission timed out, retry later
	KindUnknownTenant = "unknown-tenant" // 404
	KindBadRequest    = "bad-request"    // 400
	KindForbidden     = "forbidden"      // 403: tamper endpoint not armed
	KindInternal      = "internal"       // 500
)

// APIError is the JSON error envelope every non-200 response carries. The
// client returns it from Batch.Wait and friends, so callers can inspect
// Kind and Status programmatically.
type APIError struct {
	Status int    `json:"-"`
	Kind   string `json:"kind"`
	Tenant string `json:"tenant,omitempty"`
	Msg    string `json:"error"`
}

func (e *APIError) Error() string {
	if e.Tenant != "" {
		return fmt.Sprintf("service: %s (%s, tenant %s, http %d)", e.Msg, e.Kind, e.Tenant, e.Status)
	}
	return fmt.Sprintf("service: %s (%s, http %d)", e.Msg, e.Kind, e.Status)
}

// writeError emits the envelope with its status code.
func writeError(w http.ResponseWriter, e *APIError) {
	w.Header().Set("Content-Type", "application/json")
	if e.Status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(e.Status)
	json.NewEncoder(w).Encode(e) //nolint:errcheck // best-effort body
}
