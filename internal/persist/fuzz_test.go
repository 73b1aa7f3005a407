package persist

import (
	"bytes"
	"testing"

	"memverify/internal/mem"
)

// The fuzz targets below hold every parser of on-disk bytes to one
// contract: whatever the bytes, an error or a value — never a panic, and
// never a value that is not exactly what the bytes say (re-encoding it
// gives the input back). Seeds are the well-formed encodings plus the
// hostile shapes under testdata/fuzz.

func FuzzDecodeSegment(f *testing.F) {
	base := &segment{Epoch: 3, Shard: 1, Fingerprint: 42, Root: []byte{1, 2, 3, 4}, Image: bytes.Repeat([]byte{9}, 200)}
	f.Add(encodeSegment(f, base))
	f.Add(encodeSegment(f, deltaSegment()))
	idle := deltaSegment()
	idle.Runs, idle.Lines = nil, nil
	f.Add(encodeSegment(f, idle))
	f.Fuzz(func(t *testing.T, buf []byte) {
		s, err := decodeSegment(buf)
		if err != nil {
			return
		}
		if again := encodeSegment(t, s); !bytes.Equal(again, buf) {
			t.Fatalf("decoded segment re-encodes to different bytes")
		}
		if !s.Delta {
			return
		}
		// The run table was accepted: applying it stays inside the image
		// it names and uses its line bytes exactly.
		var total uint64
		for _, r := range s.Runs {
			lo, hi := uint64(r.Line)*mem.LineSize, (uint64(r.Line)+uint64(r.Count))*mem.LineSize
			if lo >= s.ImageSize || hi > s.ImageSize+mem.LineSize-1 {
				t.Fatalf("accepted run %+v reaches beyond the %d-byte image", r, s.ImageSize)
			}
			total += min(hi, s.ImageSize) - lo
		}
		if total != uint64(len(s.Lines)) {
			t.Fatalf("accepted runs cover %d bytes, the delta carries %d", total, len(s.Lines))
		}
		if s.ImageSize <= 1<<20 {
			s.applyTo(make([]byte, s.ImageSize))
		}
	})
}

func FuzzScanWAL(f *testing.F) {
	var log []byte
	for e := uint64(1); e <= 2; e++ {
		for _, typ := range []byte{recIntent, recCommit} {
			rec := walRecord{Type: typ, Epoch: e, Fingerprint: 42, Shards: 2, RootDigest: rootDigest(e, [][]byte{{1}, {2}})}
			log = append(log, rec.encode()...)
		}
	}
	f.Add(log)
	f.Add(log[:len(log)-10])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, buf []byte) {
		scan, err := scanWALBytes(buf)
		if err != nil {
			return
		}
		if scan.TailBytes < 0 || scan.TailBytes > int64(len(buf)) || scan.TailBytes != int64(len(scan.Records)*walRecordSize) {
			t.Fatalf("valid prefix of %d bytes for %d records in a %d-byte log", scan.TailBytes, len(scan.Records), len(buf))
		}
		if scan.TornTail == (scan.TailBytes == int64(len(buf))) {
			t.Fatalf("torn tail %v with %d of %d bytes valid", scan.TornTail, scan.TailBytes, len(buf))
		}
		for i, rec := range scan.Records {
			if !bytes.Equal(rec.encode(), buf[i*walRecordSize:(i+1)*walRecordSize]) {
				t.Fatalf("record %d re-encodes to different bytes", i)
			}
		}
	})
}

func FuzzDecodeManifest(f *testing.F) {
	f.Add((&manifest{Epoch: 7, Fingerprint: 42, Shards: 2}).encode())
	f.Add([]byte("MVMF"))
	f.Fuzz(func(t *testing.T, buf []byte) {
		m, err := decodeManifest(buf)
		if err == nil && !bytes.Equal(m.encode(), buf) {
			t.Fatalf("decoded manifest re-encodes to different bytes")
		}
	})
}

func FuzzDecodeAnchor(f *testing.F) {
	f.Add((&anchor{Intent: 7, Commit: 6, Digest: rootDigest(7, [][]byte{{1}})}).encode())
	f.Add([]byte("MVAN"))
	f.Fuzz(func(t *testing.T, buf []byte) {
		a, err := decodeAnchor(buf)
		if err == nil && !bytes.Equal(a.encode(), buf) {
			t.Fatalf("decoded anchor re-encodes to different bytes")
		}
	})
}
