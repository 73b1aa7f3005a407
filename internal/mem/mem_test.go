package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestSparseZeroFill(t *testing.T) {
	m := NewSparse()
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = 0xFF
	}
	m.Read(12345, buf)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("unwritten byte %d reads %#x, want 0", i, b)
		}
	}
	if m.PageCount() != 0 {
		t.Errorf("reading materialized %d pages", m.PageCount())
	}
}

func TestSparseRoundTrip(t *testing.T) {
	m := NewSparse()
	check := func(addr uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		m.Write(uint64(addr), data)
		got := make([]byte, len(data))
		m.Read(uint64(addr), got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseCrossPage(t *testing.T) {
	m := NewSparse()
	data := make([]byte, 3*4096)
	for i := range data {
		data[i] = byte(i * 11)
	}
	const addr = 4096 - 100 // straddles three pages
	m.Write(addr, data)
	got := make([]byte, len(data))
	m.Read(addr, got)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page write/read mismatch")
	}
	if m.PageCount() != 4 {
		t.Errorf("PageCount = %d, want 4", m.PageCount())
	}
}

func TestSparseOverwrite(t *testing.T) {
	m := NewSparse()
	m.Write(100, []byte{1, 2, 3, 4})
	m.Write(102, []byte{9})
	got := make([]byte, 4)
	m.Read(100, got)
	if !bytes.Equal(got, []byte{1, 2, 9, 4}) {
		t.Fatalf("got %v", got)
	}
}

func TestSparseSparsity(t *testing.T) {
	m := NewSparse()
	// Touch bytes 1 GiB apart; only two pages should materialize.
	m.Write(0, []byte{1})
	m.Write(1<<30, []byte{2})
	if m.PageCount() != 2 {
		t.Errorf("PageCount = %d, want 2", m.PageCount())
	}
}

func TestAdversaryPassThrough(t *testing.T) {
	inner := NewSparse()
	a := NewAdversary(inner)
	a.Write(50, []byte{1, 2, 3})
	got := make([]byte, 3)
	a.Read(50, got)
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("pass-through mismatch: %v", got)
	}
	if a.Reads != 3 || a.Writes != 3 {
		t.Errorf("traffic counters: reads %d writes %d", a.Reads, a.Writes)
	}
}

func TestAdversaryCorrupt(t *testing.T) {
	inner := NewSparse()
	a := NewAdversary(inner)
	a.Write(10, []byte{0x0F})
	a.Corrupt(10, 0xF0)
	got := make([]byte, 1)
	a.Read(10, got)
	if got[0] != 0xFF {
		t.Fatalf("corrupted byte = %#x, want 0xFF", got[0])
	}
}

func TestAdversaryReplay(t *testing.T) {
	inner := NewSparse()
	a := NewAdversary(inner)
	a.Write(100, []byte("old value"))
	h := a.Snapshot(100, 9)
	a.Write(100, []byte("new value"))

	got := make([]byte, 9)
	a.Read(100, got)
	if string(got) != "new value" {
		t.Fatalf("inactive snapshot altered reads: %q", got)
	}
	a.Replay(h)
	a.Read(100, got)
	if string(got) != "old value" {
		t.Fatalf("replay did not serve stale data: %q", got)
	}
	a.StopReplay(h)
	a.Read(100, got)
	if string(got) != "new value" {
		t.Fatalf("stopping replay did not restore: %q", got)
	}
}

func TestAdversaryReplayPartialOverlap(t *testing.T) {
	inner := NewSparse()
	a := NewAdversary(inner)
	a.Write(0, []byte{1, 2, 3, 4})
	h := a.Snapshot(1, 2) // bytes 1..2
	a.Write(0, []byte{5, 6, 7, 8})
	a.Replay(h)
	got := make([]byte, 4)
	a.Read(0, got)
	if !bytes.Equal(got, []byte{5, 2, 3, 8}) {
		t.Fatalf("partial replay = %v, want [5 2 3 8]", got)
	}
}

func TestAdversarySplice(t *testing.T) {
	inner := NewSparse()
	a := NewAdversary(inner)
	a.Write(0, []byte("AAAA"))
	a.Write(64, []byte("BBBB"))
	a.Splice(0, 64, 4)
	got := make([]byte, 4)
	a.Read(0, got)
	if string(got) != "BBBB" {
		t.Fatalf("splice read = %q, want BBBB", got)
	}
	a.Read(64, got)
	if string(got) != "BBBB" {
		t.Fatalf("source region altered: %q", got)
	}
}

func TestAdversaryDropWrites(t *testing.T) {
	inner := NewSparse()
	a := NewAdversary(inner)
	a.Write(8, []byte{1, 2, 3, 4})
	a.DropWrites(9, 2)
	a.Write(8, []byte{9, 9, 9, 9})
	got := make([]byte, 4)
	a.Read(8, got)
	if !bytes.Equal(got, []byte{9, 2, 3, 9}) {
		t.Fatalf("drop-writes = %v, want [9 2 3 9]", got)
	}
}

// BenchmarkSparseWrite is the write-back of one 64-byte block to a random
// line of a materialized 8 MiB region: the engine's store to untrusted
// memory, with the dirty-line bookkeeping it carries. The dirty set is
// cleared every 1<<16 writes, as a checkpoint would.
func BenchmarkSparseWrite(b *testing.B) {
	const span = 8 << 20
	s := NewSparse()
	s.Write(0, make([]byte, span))
	block := bytes.Repeat([]byte{0xA5}, 64)
	addr := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&(1<<16-1) == 0 {
			s.ClearDirty()
		}
		addr = (addr*6364136223846793005 + 1442695040888963407) % span &^ 63
		s.Write(addr, block)
	}
}

func TestSparseDirtyLines(t *testing.T) {
	s := NewSparse()
	if n := s.DirtyLines(1 << 20); n != 0 {
		t.Fatalf("fresh memory has %d dirty lines", n)
	}
	s.Write(4096-64, bytes.Repeat([]byte{1}, 128)) // last line of page 0, first of page 1
	s.Write(100, []byte{2})                        // one byte dirties its line
	s.Write(3*4096+63, []byte{3, 4})               // two lines, one byte each
	s.Write(1<<30, []byte{5})                      // beyond every limit below
	runs, data := s.AppendDirty(1<<20, nil, nil)
	want := []LineRun{{Line: 1, Count: 1}, {Line: 63, Count: 2}, {Line: 192, Count: 2}}
	if len(runs) != len(want) {
		t.Fatalf("runs = %v, want %v", runs, want)
	}
	for i := range want {
		if runs[i] != want[i] {
			t.Fatalf("runs = %v, want %v", runs, want)
		}
	}
	if len(data) != 5*LineSize || data[100-64] != 2 || data[64] != 1 || data[3*64+63] != 3 || data[4*64] != 4 {
		t.Fatalf("dirty bytes do not match what was written (%d bytes)", len(data))
	}
	if n := s.DirtyLines(1 << 20); n != 5 {
		t.Fatalf("DirtyLines = %d, want 5", n)
	}
	// A limit inside a line clips that line's bytes; a line starting at or
	// beyond the limit is not reported at all.
	runs, data = s.AppendDirty(4096+10, nil, nil)
	if len(runs) != 2 || runs[1] != (LineRun{Line: 63, Count: 2}) || len(data) != 2*LineSize+10 {
		t.Fatalf("clipped: runs %v, %d bytes", runs, len(data))
	}
	if n := s.DirtyLines(4096); n != 2 {
		t.Fatalf("DirtyLines(4096) = %d, want 2", n)
	}
	s.ClearDirty()
	if n := s.DirtyLines(1 << 40); n != 0 {
		t.Fatalf("%d lines dirty after ClearDirty", n)
	}
	s.Write(0, make([]byte, 2*4096)) // whole pages: one run across the boundary
	if runs, _ := s.AppendDirty(1<<20, nil, nil); len(runs) != 1 || runs[0] != (LineRun{Line: 0, Count: 128}) {
		t.Fatalf("two whole pages: runs %v", runs)
	}
}
