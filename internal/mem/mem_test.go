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
			s.clearDirty()
		}
		addr = (addr*6364136223846793005 + 1442695040888963407) % span &^ 63
		s.Write(addr, block)
	}
}

// dirtyNow returns the runs and bytes of s's dirty lines below limit, as
// a delta view taken now holds them, without clearing them.
func dirtyNow(s *Sparse, limit uint64) ([]LineRun, []byte) {
	f := s.frozen(limit, true)
	defer f.Release()
	return f.AppendRuns(nil), viewLines(f)
}

// viewLines returns the bytes f.Lines yields, concatenated.
func viewLines(f *Frozen) []byte {
	var data []byte
	f.Lines(func(p []byte) error { data = append(data, p...); return nil })
	return data
}

// viewImage returns the bytes f.Image yields, concatenated.
func viewImage(f *Frozen) []byte {
	var img []byte
	f.Image(func(p []byte) error { img = append(img, p...); return nil })
	return img
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
	runs, data := dirtyNow(s, 1<<20)
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
	runs, data = dirtyNow(s, 4096+10)
	if len(runs) != 2 || runs[1] != (LineRun{Line: 63, Count: 2}) || len(data) != 2*LineSize+10 {
		t.Fatalf("clipped: runs %v, %d bytes", runs, len(data))
	}
	if n := s.DirtyLines(4096); n != 2 {
		t.Fatalf("DirtyLines(4096) = %d, want 2", n)
	}
	s.clearDirty()
	if n := s.DirtyLines(1 << 40); n != 0 {
		t.Fatalf("%d lines dirty after clearDirty", n)
	}
	s.Write(0, make([]byte, 2*4096)) // whole pages: one run across the boundary
	if runs, _ := dirtyNow(s, 1<<20); len(runs) != 1 || runs[0] != (LineRun{Line: 0, Count: 128}) {
		t.Fatalf("two whole pages: runs %v", runs)
	}
}

// TestSparseSeededOps pins the observable state of a seeded op sequence —
// writes of random spans, near and far, dirty-set queries at random
// limits and snapshot boundaries — to the values the memory gave when
// its pages were a map keyed by page number: the page count, and every
// DirtyLines answer and every dirty-line query's runs and bytes (what
// AppendDirty returned then, a delta view now), summed and digested.
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
	for op := 0; op < 4000; op++ {
		r := next()
		switch r % 16 {
		case 0: // a snapshot boundary
			s.clearDirty()
		case 1, 2: // a query below a random limit
			limit := next() % (3 << 20)
			n := s.DirtyLines(limit)
			lines += n
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(n)))
			runs, data := dirtyNow(s, limit)
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
		t.Errorf("digest of every DirtyLines and dirty-line answer = %s, want %s", got, want)
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
		runsA, dataA := dirtyNow(adopted, limit)
		runsW, dataW := dirtyNow(written, limit)
		if fmt.Sprint(runsA) != fmt.Sprint(runsW) || !bytes.Equal(dataA, dataW) {
			t.Fatalf("dirty lines below %d: runs %v after Adopt, %v after Write", limit, runsA, runsW)
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
	// While a frozen view holds the page, a write moves the memory to a
	// copy: the slice stays on the bytes the view froze.
	f := s.Freeze(1<<20, false)
	s.Write(4096+128, []byte{8})
	if b[0] != 9 {
		t.Fatal("a write under an open frozen view reached an earlier View's page")
	}
	if b2, _ := s.View(4096+128, 64); b2[0] != 8 {
		t.Fatal("a View after the copy does not see the write")
	}
	f.Release()
	for _, addr := range []uint64{0, 3 * 4096, 1 << 40, 2*4096 - 64} {
		if b, ok := s.View(addr, 128); ok || b != nil {
			t.Fatalf("View(%#x, 128) lent %d bytes of no page, or of two", addr, len(b))
		}
	}
	if s.PageCount() != 1 {
		t.Fatalf("PageCount = %d, want 1: View must not materialize", s.PageCount())
	}
}

// TestFrozenView holds a view to the moment it was taken: its image, runs
// and line bytes stay what the memory held then, whatever is written
// after, and a first write to a held page copies it without making a new
// page.
func TestFrozenView(t *testing.T) {
	const limit = 3*4096 + 100 // a short last page, and a short last line
	s := NewSparse()
	s.Write(0, bytes.Repeat([]byte{1}, 4096)) // page 0
	s.Write(3*4096+90, []byte{2, 2, 2, 2})    // the short last line
	s.Write(1<<20, []byte{3})                 // beyond the limit
	want := make([]byte, limit)
	s.Read(0, want)
	full := s.Freeze(limit, false)
	if n := s.DirtyLines(1 << 30); n != 0 {
		t.Fatalf("%d lines dirty after Freeze", n)
	}
	pages := s.PageCount()
	s.Write(64, bytes.Repeat([]byte{9}, 200))
	s.Write(3*4096+91, []byte{9})
	s.Write(2*4096, []byte{9}) // an unwritten page: no view holds it
	if got := viewImage(full); !bytes.Equal(got, want) {
		t.Fatal("a full view's image changed with writes made after it was taken")
	}
	if runs := full.AppendRuns(nil); fmt.Sprint(runs) != "[{0 64} {193 1}]" {
		t.Fatalf("full view runs = %v", runs)
	}
	wantLines := append(want[:4096:4096], want[3*4096+64:]...)
	if got := viewLines(full); !bytes.Equal(got, wantLines) || full.LineBytes() != uint64(len(wantLines)) {
		t.Fatalf("full view lines: %d bytes, LineBytes %d, want %d", len(got), full.LineBytes(), len(wantLines))
	}
	if s.PageCount() != pages+1 {
		t.Fatalf("PageCount = %d, want %d: copies are not new pages", s.PageCount(), pages+1)
	}

	delta := s.Freeze(limit, true)
	runs := delta.AppendRuns(nil)
	if fmt.Sprint(runs) != "[{1 4} {128 1} {193 1}]" {
		t.Fatalf("delta view runs = %v", runs)
	}
	var dwant []byte
	for _, r := range runs {
		lo := uint64(r.Line) * LineSize
		b := make([]byte, min(uint64(r.Count)*LineSize, limit-lo))
		s.Read(lo, b)
		dwant = append(dwant, b...)
	}
	s.Write(0, bytes.Repeat([]byte{5}, limit))
	if got := viewLines(delta); !bytes.Equal(got, dwant) || delta.LineBytes() != uint64(len(dwant)) {
		t.Fatalf("delta view lines: %d bytes, LineBytes %d, want %d", len(got), delta.LineBytes(), len(dwant))
	}
	full.Release()
	delta.Release()
}

// TestWriteAllocs pins the write path's allocations: none for a write to
// a written page with no view open, and none for the first write to a
// page after the view that held it was released.
func TestWriteAllocs(t *testing.T) {
	const pages = 128
	s := NewSparse()
	buf := bytes.Repeat([]byte{7}, 100)
	for p := uint64(0); p < pages; p++ {
		s.Write(p*4096, buf)
	}
	if n := testing.AllocsPerRun(100, func() { s.Write(4096+300, buf) }); n != 0 {
		t.Errorf("a write with no view open made %v allocations", n)
	}
	s.Freeze(pages*4096, false).Release()
	next := uint64(0)
	if n := testing.AllocsPerRun(pages-1, func() { s.Write(next*4096+500, buf); next++ }); n != 0 {
		t.Errorf("a first write to a page of a released view made %v allocations", n)
	}
	if next != pages {
		t.Fatalf("wrote %d held pages, want %d", next, pages)
	}
}

// TestOverlappingViews takes two full views that hold the same pages and
// releases them in both orders: the one still open keeps its moment
// through writes to every page, and the memory reads back what was
// written last.
func TestOverlappingViews(t *testing.T) {
	for _, firstOut := range []string{"older", "newer"} {
		t.Run(firstOut, func(t *testing.T) {
			const limit = 4 * 4096
			s := NewSparse()
			image := func() []byte {
				img := make([]byte, limit)
				s.Read(0, img)
				return img
			}
			s.Write(0, bytes.Repeat([]byte{1}, limit))
			imgA := image()
			a := s.Freeze(limit, false)
			s.Write(4096, []byte{2}) // page 1 moves to a copy a does not hold
			imgB := image()
			b := s.Freeze(limit, false) // shares pages 0, 2 and 3 with a
			out, open, openImg := a, b, imgB
			if firstOut == "newer" {
				out, open, openImg = b, a, imgA
			}
			out.Release()
			for round := byte(3); round < 5; round++ {
				s.Write(0, bytes.Repeat([]byte{round}, limit))
				if !bytes.Equal(viewImage(open), openImg) {
					t.Fatalf("round %d: the open view changed after the other was released", round)
				}
			}
			open.Release()
			s.Write(100, []byte{5})
			want := bytes.Repeat([]byte{4}, limit)
			want[100] = 5
			if !bytes.Equal(image(), want) {
				t.Fatal("memory does not read back what was written last")
			}
		})
	}
}
