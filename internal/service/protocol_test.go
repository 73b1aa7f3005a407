package service

import (
	"bytes"
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
