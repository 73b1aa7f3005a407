package mem

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzSparseOps drives the sparse memory with an op stream decoded from
// fuzz input and cross-checks it against a flat reference array, and its
// dirty-line bookkeeping against a flat reference set: after any op
// stream, the dirty runs are exactly the lines written since the last
// Freeze, in order, carrying the bytes the memory holds. The
// stream also freezes views, full or delta, and releases them in any
// order: until it is released, a view's image, runs and line bytes are
// the reference's at the moment it was taken, whatever was written since.
func FuzzSparseOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0xFF, 0x00, 0x80, 0x7F})
	f.Add([]byte{0x0F, 0xF0, 63, 2, 0, 0, 0, 6, 0x10, 0x00, 63, 4, 0x0F, 0xC0, 10, 8})
	f.Add([]byte{0x00, 0x10, 63, 2, 0xFF, 0xFF, 0, 0x0F, 0x00, 0x20, 63, 4, 0x40, 0x00, 9, 0x1F, 0x00, 0x30, 8, 6, 0, 0, 0, 0x0D, 0, 1, 0, 0x0D})

	const space = 1 << 16
	f.Fuzz(func(t *testing.T, ops []byte) { runOps(t, ops) })
}

func runOps(t *testing.T, ops []byte) {
	const space = 1 << 16
	{
		s := NewSparse()
		ref := make([]byte, space)
		dirty := make([]bool, space/LineSize)
		var views []refView
		for i := 0; i+4 <= len(ops); i += 4 {
			addr := uint64(ops[i])<<8 | uint64(ops[i+1])
			n := int(ops[i+2])%64 + 1
			if int(addr)+n > space {
				n = space - int(addr)
			}
			switch op := ops[i+3]; {
			case op&1 == 0 && op&6 == 6:
				// A snapshot boundary, over a span the op stream picks.
				limit := addr + uint64(n)
				v := freezeRef(t, s, ref, dirty, viewStart(addr, op), limit, op&8 != 0)
				v.check(t)
				v.f.Release()
			case op&1 == 0:
				payload := bytes.Repeat([]byte{op}, n)
				s.Write(addr, payload)
				copy(ref[addr:], payload)
				for l := int(addr) / LineSize; l <= (int(addr)+n-1)/LineSize; l++ {
					dirty[l] = true
				}
			case op&0x0F == 0x0F:
				// A view kept open while the stream goes on.
				views = append(views, freezeRef(t, s, ref, dirty, viewStart(addr, op), addr+uint64(n), op&0x10 != 0))
			case op&0x0F == 0x0D && len(views) > 0:
				k := int(addr) % len(views)
				views[k].check(t)
				views[k].f.Release()
				views = append(views[:k], views[k+1:]...)
			default:
				got := make([]byte, n)
				s.Read(addr, got)
				if !bytes.Equal(got, ref[addr:int(addr)+n]) {
					t.Fatalf("read at %#x diverged from reference", addr)
				}
			}
		}
		for _, v := range views {
			v.check(t)
		}
		got := make([]byte, space)
		s.Read(0, got)
		if !bytes.Equal(got, ref) {
			t.Fatal("memory diverged from reference")
		}
		freezeRef(t, s, ref, dirty, 0, space, true).check(t)
	}
}

// viewStart is the start of a view the op stream takes ending past addr:
// 0, or with bit 5 of op set the line at half addr.
func viewStart(addr uint64, op byte) uint64 {
	if op&0x20 == 0 {
		return 0
	}
	return addr / 2 &^ (LineSize - 1)
}

// refView is a frozen view beside the reference's state when it was
// taken: the bytes in its span and the dirty lines.
type refView struct {
	f     *Frozen
	start uint64
	img   []byte
	dirty []bool
}

// freezeRef checks DirtyLines against the reference's dirty set in
// [start, limit), freezes s there, and clears the reference's dirty set
// as Freeze clears the memory's.
func freezeRef(t *testing.T, s *Sparse, ref []byte, dirty []bool, start, limit uint64, delta bool) refView {
	t.Helper()
	lines := 0
	for l, d := range dirty {
		if lo := uint64(l) * LineSize; d && lo >= start && lo < limit {
			lines++
		}
	}
	if got := s.DirtyLines(start, limit); got != lines {
		t.Fatalf("DirtyLines(%d, %d) = %d, want %d", start, limit, got, lines)
	}
	v := refView{f: s.Freeze(start, limit, delta), start: start, img: bytes.Clone(ref[start:limit]), dirty: slices.Clone(dirty)}
	clear(dirty)
	return v
}

// check compares the view's runs and line bytes with the dirty lines in
// its span when it was taken and, for a full view, its image with the
// bytes then.
func (v refView) check(t *testing.T) {
	t.Helper()
	limit := v.start + v.f.Len()
	if !v.f.Delta() && !bytes.Equal(viewImage(v.f), v.img) {
		t.Fatalf("full view of [%d, %d) diverged from the reference when taken", v.start, limit)
	}
	var want []byte
	lines := 0
	for l, d := range v.dirty {
		lo := uint64(l) * LineSize
		if d && lo >= v.start && lo < limit {
			lines++
			want = append(want, v.img[lo-v.start:min(lo+LineSize, limit)-v.start]...)
		}
	}
	if data := viewLines(v.f); !bytes.Equal(data, want) || v.f.LineBytes() != uint64(len(want)) {
		t.Fatalf("view's dirty bytes in [%d, %d) diverged from the reference when taken", v.start, limit)
	}
	runs := v.f.AppendRuns(nil)
	next, covered := uint64(0), 0
	for _, r := range runs {
		if r.Count == 0 || (covered > 0 && uint64(r.Line) <= next) {
			t.Fatalf("runs %v are not maximal, ascending and non-empty", runs)
		}
		for l := r.Line; l < r.Line+r.Count; l++ { // numbered from the view's start
			if !v.dirty[uint64(l)+v.start/LineSize] {
				t.Fatalf("run %v covers clean line %d", r, l)
			}
		}
		next, covered = uint64(r.Line)+uint64(r.Count), covered+int(r.Count)
	}
	if covered != lines {
		t.Fatalf("runs cover %d lines, want %d", covered, lines)
	}
}

// FuzzAdversaryNeverPanics exercises the attack mutators with arbitrary
// geometry.
func FuzzAdversaryNeverPanics(f *testing.F) {
	f.Add(uint16(0), uint16(64), uint16(32), byte(1))
	f.Fuzz(func(t *testing.T, a, b, c uint16, mode byte) {
		adv := NewAdversary(NewSparse())
		adv.Write(uint64(a), []byte{1, 2, 3})
		size := uint64(b)%1024 + 1
		switch mode % 4 {
		case 0:
			h := adv.Snapshot(uint64(a), size)
			adv.Replay(h)
			adv.StopReplay(h)
		case 1:
			adv.Splice(uint64(a), uint64(c), size)
		case 2:
			adv.DropWrites(uint64(a), size)
		case 3:
			adv.Corrupt(uint64(a), mode)
		}
		buf := make([]byte, size)
		adv.Read(uint64(a), buf)
		adv.Write(uint64(c), buf)
	})
}
