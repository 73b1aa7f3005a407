package mem

import (
	"bytes"
	"testing"
)

// FuzzSparseOps drives the sparse memory with an op stream decoded from
// fuzz input and cross-checks it against a flat reference array, and its
// dirty-line bookkeeping against a flat reference set: after any op
// stream, the dirty runs are exactly the lines written since the last
// ClearDirty, in order, carrying the bytes the memory holds.
func FuzzSparseOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0xFF, 0x00, 0x80, 0x7F})
	f.Add([]byte{0x0F, 0xF0, 63, 2, 0, 0, 0, 6, 0x10, 0x00, 63, 4, 0x0F, 0xC0, 10, 8})

	const space = 1 << 16
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := NewSparse()
		ref := make([]byte, space)
		dirty := make([]bool, space/LineSize)
		for i := 0; i+4 <= len(ops); i += 4 {
			addr := uint64(ops[i])<<8 | uint64(ops[i+1])
			n := int(ops[i+2])%64 + 1
			if int(addr)+n > space {
				n = space - int(addr)
			}
			switch {
			case ops[i+3]&1 == 0 && ops[i+3]&6 == 6:
				// A snapshot boundary, at a limit the op stream picks.
				checkDirty(t, s, ref, dirty, addr+uint64(n))
				s.ClearDirty()
				clear(dirty)
			case ops[i+3]&1 == 0:
				payload := bytes.Repeat([]byte{ops[i+3]}, n)
				s.Write(addr, payload)
				copy(ref[addr:], payload)
				for l := int(addr) / LineSize; l <= (int(addr)+n-1)/LineSize; l++ {
					dirty[l] = true
				}
			default:
				got := make([]byte, n)
				s.Read(addr, got)
				if !bytes.Equal(got, ref[addr:int(addr)+n]) {
					t.Fatalf("read at %#x diverged from reference", addr)
				}
			}
		}
		checkDirty(t, s, ref, dirty, space)
	})
}

// checkDirty compares s's dirty lines below limit with the reference set
// and their bytes with the reference array.
func checkDirty(t *testing.T, s *Sparse, ref []byte, dirty []bool, limit uint64) {
	t.Helper()
	runs, data := s.AppendDirty(limit, nil, nil)
	var want []byte
	lines := 0
	for l, d := range dirty {
		lo := uint64(l) * LineSize
		if d && lo < limit {
			lines++
			want = append(want, ref[lo:min(lo+LineSize, limit)]...)
		}
	}
	if got := s.DirtyLines(limit); got != lines {
		t.Fatalf("DirtyLines(%d) = %d, want %d", limit, got, lines)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("dirty bytes below %d diverged from reference", limit)
	}
	next, covered := uint64(0), 0
	for _, r := range runs {
		if r.Count == 0 || (covered > 0 && uint64(r.Line) <= next) {
			t.Fatalf("runs %v are not maximal, ascending and non-empty", runs)
		}
		for l := r.Line; l < r.Line+r.Count; l++ {
			if !dirty[l] {
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
