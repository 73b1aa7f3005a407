package service

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"memverify/internal/core"
)

// The fuzz targets below hold every parser of bytes that arrive from
// outside the process — the batch request a client posts, the response a
// server returns, the -tenants spec an operator types — to one contract:
// an error or a value, never a panic; what a decoder accepts is within the
// limits it was given and re-encodes to what it read. Seeds are the
// well-formed encodings plus the hostile shapes under testdata/fuzz.

// fuzzMaxOps and fuzzMaxBytes are the bounds the request fuzzer declares:
// small, so a decoder that sized anything by a header's claim instead of
// by them would show up as memory, not as a pass.
const (
	fuzzMaxOps   = 64
	fuzzMaxBytes = 4096
)

func FuzzDecodeRequest(f *testing.F) {
	f.Add(EncodeRequest(nil))
	f.Add(EncodeRequest([]Op{{Write: true, Off: 8, Data: []byte("payload")}, {Off: 1 << 40, Data: make([]byte, 16)}}))
	f.Add(EncodeRequest([]Op{{Off: 0, Data: make([]byte, fuzzMaxBytes)}}))
	f.Fuzz(func(t *testing.T, wire []byte) {
		ops, err := DecodeRequest(bytes.NewReader(wire), fuzzMaxOps, fuzzMaxBytes)
		if err != nil {
			return
		}
		total := 0
		for _, op := range ops {
			total += len(op.Data)
		}
		if len(ops) > fuzzMaxOps || total > fuzzMaxBytes {
			t.Fatalf("accepted %d ops carrying %d bytes past the limits %d/%d", len(ops), total, fuzzMaxOps, fuzzMaxBytes)
		}
		again := EncodeRequest(ops)
		if !bytes.Equal(again, wire) {
			t.Fatal("decoded request re-encodes to different bytes")
		}
	})
}

// TestDecodeRequestAllocatesWithinItsLimits pins the allocation half of
// the contract on the headers a fuzzer finds first: a count or a length
// field claiming 2³²−1 is refused on its face, having allocated for the
// declared limits at most and never for the claim.
func TestDecodeRequestAllocatesWithinItsLimits(t *testing.T) {
	hdr := func(nops uint32) []byte {
		return binary.LittleEndian.AppendUint32(append([]byte(nil), reqMagic[:]...), nops)
	}
	op := func(kind byte, length uint32) []byte {
		b := binary.LittleEndian.AppendUint64([]byte{kind}, 0)
		return binary.LittleEndian.AppendUint32(b, length)
	}
	cases := map[string][]byte{
		"2^32-1 ops":          hdr(1<<32 - 1),
		"one op over the cap": hdr(fuzzMaxOps + 1),
		"4 GiB read":          append(hdr(1), op(0, 1<<32-1)...),
		"4 GiB write":         append(hdr(1), op(1, 1<<32-1)...),
		"limit, then 4 GiB":   append(append(hdr(2), op(0, fuzzMaxBytes)...), op(0, 1<<32-1)...),
	}
	// What a batch at the limits may cost: the op slice, its payload
	// buffers, and slack for the reader and the error value.
	const ceiling = fuzzMaxOps*64 + fuzzMaxBytes + 4096
	for name, wire := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeRequest(bytes.NewReader(wire), fuzzMaxOps, fuzzMaxBytes)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > ceiling {
			t.Errorf("%s: allocated %d bytes refusing it, limits allow %d", name, got, ceiling)
		}
	}
}

func FuzzDecodeResponse(f *testing.F) {
	batch := func() []Op {
		return []Op{{Off: 0, Data: make([]byte, 4)}, {Write: true, Off: 64, Data: []byte{1, 2}}, {Off: 128, Data: make([]byte, 9)}}
	}
	var good bytes.Buffer
	if err := EncodeResponse(&good, batch()); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:good.Len()-1])
	f.Add([]byte("MVR1\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, wire []byte) {
		ops := batch()
		if err := DecodeResponse(bytes.NewReader(wire), ops); err != nil {
			return
		}
		// Accepted: the response named this batch and filled exactly its
		// read buffers, in order, from the bytes after the header.
		var again bytes.Buffer
		if err := EncodeResponse(&again, ops); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), wire[:again.Len()]) {
			t.Fatal("decoded response re-encodes to different bytes")
		}
		if len(ops[0].Data) != 4 || len(ops[1].Data) != 2 || len(ops[2].Data) != 9 {
			t.Fatal("decoding resized the batch's buffers")
		}
	})
}

func FuzzParseTenants(f *testing.F) {
	f.Add("t0")
	f.Add("alpha,bravo:scheme=i;policy=halt,charlie:shards=8")
	f.Add("t0:protected=1048576;l2=65536;chunk=4;queue=16;alg=sha1")
	f.Add("a:shards=99999999999999999999")
	f.Add(",,:,;=")
	f.Fuzz(func(t *testing.T, spec string) {
		var base TenantConfig
		base.Store.Shards = 2
		base.Store.Machine = core.DefaultConfig()
		tcs, err := ParseTenants(spec, base)
		if err != nil {
			return
		}
		if len(tcs) == 0 {
			t.Fatal("accepted a spec that names no tenant")
		}
		for _, tc := range tcs {
			if err := checkTenantName(tc.Name); err != nil {
				t.Fatalf("accepted tenant name: %v", err)
			}
			m := tc.Store.Machine
			if tc.Store.Shards < 1 || tc.Store.QueueDepth < 0 || m.ProtectedBytes == 0 || m.L2Size <= 0 || m.ChunkBlocks < 1 {
				t.Fatalf("accepted a non-positive size: %+v", tc.Store)
			}
		}
	})
}
