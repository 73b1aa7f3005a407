package mem

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
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

// TestSparseSeededOps pins the observable state of a seeded op sequence —
// writes of random spans, near and far, dirty-set queries at random
// limits and snapshot boundaries — to the values the memory gave when
// its pages were a map keyed by page number: the page count, and every
// DirtyLines answer and every AppendDirty's runs and bytes, summed and
// digested.
func TestSparseSeededOps(t *testing.T) {
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 { // splitmix64
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		return z ^ z>>31
	}
	s := NewSparse()
	h := sha256.New()
	lines := 0
	var runs []LineRun
	var data []byte
	for op := 0; op < 4000; op++ {
		r := next()
		switch r % 16 {
		case 0: // a snapshot boundary
			s.ClearDirty()
		case 1, 2: // a query below a random limit
			limit := next() % (3 << 20)
			n := s.DirtyLines(limit)
			lines += n
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(n)))
			runs, data = s.AppendDirty(limit, runs[:0], data[:0])
			for _, run := range runs {
				h.Write(binary.LittleEndian.AppendUint64(nil, uint64(run.Line)<<32|uint64(run.Count)))
			}
			h.Write(data)
		default: // a write, one in 32 of them far above the rest
			addr := next() % (2 << 20)
			if r>>8%32 == 0 {
				addr += 1 << 30
			}
			buf := make([]byte, next()%9000+1)
			for i := range buf {
				buf[i] = byte(r >> (i % 7 * 8))
			}
			s.Write(addr, buf)
		}
	}
	if got, want := s.PageCount(), 689; got != want {
		t.Errorf("PageCount = %d, want %d", got, want)
	}
	if want := 272254; lines != want {
		t.Errorf("DirtyLines answers sum to %d, want %d", lines, want)
	}
	if got, want := hex.EncodeToString(h.Sum(nil)), "63e1c6a934b936b64157f728b973a99ad40236a4d8854a8c9365c601da910455"; got != want {
		t.Errorf("digest of every DirtyLines and AppendDirty answer = %s, want %s", got, want)
	}
}

// TestSparseAdopt holds Adopt to Write(0, img): the same pages, the same
// dirty lines and runs, the same bytes — with img's whole pages taken as
// the memory's own, so writes land in img, and a short last page copied,
// so writes past img's end never reach the buffer beyond it.
func TestSparseAdopt(t *testing.T) {
	const size = 5*4096 + 200
	buf := make([]byte, size+64)
	for i := range buf {
		buf[i] = byte(i*7 + 1)
	}
	img := buf[:size]
	written := NewSparse()
	written.Write(0, img)
	adopted := NewSparse()
	adopted.Adopt(img)
	if got, want := adopted.PageCount(), written.PageCount(); got != want {
		t.Fatalf("PageCount = %d after Adopt, %d after Write", got, want)
	}
	for _, limit := range []uint64{size, 4096, 1 << 20} {
		if got, want := adopted.DirtyLines(limit), written.DirtyLines(limit); got != want {
			t.Fatalf("DirtyLines(%d) = %d after Adopt, %d after Write", limit, got, want)
		}
		runsA, dataA := adopted.AppendDirty(limit, nil, nil)
		runsW, dataW := written.AppendDirty(limit, nil, nil)
		if fmt.Sprint(runsA) != fmt.Sprint(runsW) || !bytes.Equal(dataA, dataW) {
			t.Fatalf("AppendDirty(%d): runs %v after Adopt, %v after Write", limit, runsA, runsW)
		}
	}
	got := make([]byte, size+100)
	adopted.Read(0, got)
	if !bytes.Equal(got[:size], img) || !bytes.Equal(got[size:], make([]byte, 100)) {
		t.Fatal("adopted memory does not read back as img followed by zeros")
	}

	adopted.Write(100, []byte{0xEE})
	if img[100] != 0xEE {
		t.Fatal("a write to a whole adopted page did not land in img")
	}
	tail := append([]byte(nil), buf[size:]...)
	adopted.Write(size-1, bytes.Repeat([]byte{0xDD}, 65))
	if !bytes.Equal(buf[size:], tail) {
		t.Fatal("a write at the end of the short last page reached the caller's bytes beyond img")
	}
}

// TestSparseView lends bytes in place: a written page's own bytes, and
// nothing where no page was written or across a page boundary.
func TestSparseView(t *testing.T) {
	s := NewSparse()
	s.Write(4096+128, []byte{1, 2, 3})
	b, ok := s.View(4096+128, 64)
	if !ok || !bytes.Equal(b[:4], []byte{1, 2, 3, 0}) {
		t.Fatalf("View of written bytes = %v, %v", b, ok)
	}
	s.Write(4096+128, []byte{9})
	if b[0] != 9 {
		t.Fatal("a View is a copy, not the page's bytes")
	}
	for _, addr := range []uint64{0, 3 * 4096, 1 << 40, 2*4096 - 64} {
		if b, ok := s.View(addr, 128); ok || b != nil {
			t.Fatalf("View(%#x, 128) lent %d bytes of no page, or of two", addr, len(b))
		}
	}
	if s.PageCount() != 1 {
		t.Fatalf("PageCount = %d, want 1: View must not materialize", s.PageCount())
	}
}
