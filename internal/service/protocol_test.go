package service

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func TestProtocolRoundtrip(t *testing.T) {
	ops := []Op{
		{Write: true, Off: 0x10, Data: []byte{1, 2, 3, 4}},
		{Off: 0x10, Data: make([]byte, 4)},
		{Write: true, Off: 1 << 30, Data: []byte{0xAA}},
		{Off: 7, Data: make([]byte, 0)},
	}
	wire := EncodeRequest(ops)
	got, err := DecodeRequest(bytes.NewReader(wire), 0, 0)
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	if len(got) != len(ops) {
		t.Fatalf("decoded %d ops, want %d", len(got), len(ops))
	}
	for i := range ops {
		if got[i].Write != ops[i].Write || got[i].Off != ops[i].Off || len(got[i].Data) != len(ops[i].Data) {
			t.Errorf("op %d: got %+v, want %+v", i, got[i], ops[i])
		}
		if ops[i].Write && !bytes.Equal(got[i].Data, ops[i].Data) {
			t.Errorf("op %d: write payload corrupted", i)
		}
	}

	// Fill the decoded reads as the server would, then round-trip the
	// response back into the original read buffers.
	copy(got[1].Data, []byte{9, 8, 7, 6})
	var resp bytes.Buffer
	if err := EncodeResponse(&resp, got); err != nil {
		t.Fatalf("EncodeResponse: %v", err)
	}
	if err := DecodeResponse(&resp, ops); err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	if !bytes.Equal(ops[1].Data, []byte{9, 8, 7, 6}) {
		t.Errorf("read payload did not round-trip: %v", ops[1].Data)
	}
}

func TestProtocolRejectsMalformed(t *testing.T) {
	good := EncodeRequest([]Op{{Write: true, Off: 1, Data: []byte{1}}})
	// The header declares one op; a second write follows it.
	undercount := append(append([]byte(nil), good...), EncodeRequest([]Op{{Write: true, Off: 9, Data: []byte{2}}})[8:]...)
	cases := map[string][]byte{
		"empty":           {},
		"bad magic":       append([]byte("XXXX"), good[4:]...),
		"truncated ops":   good[:len(good)-1],
		"truncated count": good[:6],
		"trailing bytes":  undercount,
	}
	for name, wire := range cases {
		if _, err := DecodeRequest(bytes.NewReader(wire), 0, 0); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}

	// Unknown op kind.
	bad := append([]byte(nil), good...)
	bad[8] = 7
	if _, err := DecodeRequest(bytes.NewReader(bad), 0, 0); err == nil {
		t.Error("unknown kind: decoded without error")
	}

	// Limits: op count and total payload.
	many := make([]Op, 10)
	for i := range many {
		many[i] = Op{Off: uint64(i), Data: make([]byte, 8)}
	}
	if _, err := DecodeRequest(bytes.NewReader(EncodeRequest(many)), 5, 0); err == nil {
		t.Error("op-count limit not enforced")
	}
	if _, err := DecodeRequest(bytes.NewReader(EncodeRequest(many)), 0, 16); err == nil {
		t.Error("payload limit not enforced")
	}
}

func TestProtocolResponseMismatch(t *testing.T) {
	ops := []Op{{Off: 0, Data: make([]byte, 4)}}
	var resp bytes.Buffer
	if err := EncodeResponse(&resp, ops); err != nil {
		t.Fatal(err)
	}
	two := []Op{{Off: 0, Data: make([]byte, 4)}, {Off: 4, Data: make([]byte, 4)}}
	if err := DecodeResponse(&resp, two); err == nil {
		t.Error("op-count mismatch: decoded without error")
	}
}

// TestResponseHeaderTruncation: a response cut anywhere in its header
// fails as io.ReadFull fails — io.EOF before its first byte,
// io.ErrUnexpectedEOF after — whether DecodeResponse reads the header
// byte by byte (an io.ByteReader) or in one read.
func TestResponseHeaderTruncation(t *testing.T) {
	var resp bytes.Buffer
	if err := EncodeResponse(&resp, nil); err != nil {
		t.Fatal(err)
	}
	wire := resp.Bytes()
	for n := 0; n <= len(wire); n++ {
		want := io.ErrUnexpectedEOF
		switch n {
		case 0:
			want = io.EOF
		case len(wire):
			want = nil
		}
		for _, r := range []io.Reader{bytes.NewReader(wire[:n]), io.LimitReader(bytes.NewReader(wire), int64(n))} {
			if err := DecodeResponse(r, nil); !errors.Is(err, want) || (want == nil) != (err == nil) {
				t.Errorf("%T over %d of %d header bytes: %v, want %v", r, n, len(wire), err, want)
			}
		}
	}
}

// countingReader counts the bytes its reader hands out.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestDecodeRequestReadsBoundedBytes pins that DecodeRequest never reads
// more than 8 + 13·maxOps + maxBytes + 1 bytes of a body, however long the
// body is: read payloads are not on the wire, write payloads count against
// maxBytes before they are read, and the trailing-byte probe reads one
// byte. The handler can hand it r.Body without a MaxBytesReader.
func TestDecodeRequestReadsBoundedBytes(t *testing.T) {
	const maxOps, maxBytes = 4, 64
	const bound = 8 + opHeaderSize*maxOps + maxBytes + 1
	flood := make([]byte, 1<<20)

	tooMany := binary.LittleEndian.AppendUint32(append([]byte(nil), reqMagic[:]...), maxOps+1)
	tooLong := EncodeRequest([]Op{{Write: true, Off: 0, Data: make([]byte, maxBytes+1)}})
	valid := EncodeRequest([]Op{
		{Write: true, Off: 0, Data: make([]byte, maxBytes)},
		{Off: 0, Data: make([]byte, maxBytes)},
	})
	for name, prefix := range map[string][]byte{
		"op count over maxOps":    tooMany,
		"write length over bytes": tooLong[:8+opHeaderSize],
		"valid batch then flood":  valid,
	} {
		body := &countingReader{r: io.MultiReader(bytes.NewReader(prefix), bytes.NewReader(flood))}
		if _, err := DecodeRequest(body, maxOps, maxBytes); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if body.n > bound {
			t.Errorf("%s: read %d bytes, bound %d", name, body.n, bound)
		}
	}
}
