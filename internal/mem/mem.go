// Package mem provides the untrusted external memory of the paper's model:
// a sparse byte-addressable physical memory plus an adversary layer that
// can tamper with it (corruption, replay, splicing, dropped writes) the way
// a physical attacker on the memory bus would.
package mem

import (
	"math/bits"
	"slices"
)

// Memory is byte-addressable storage. Read and Write transfer len(p) bytes
// at addr. Implementations are not required to be concurrency safe; the
// simulator is single-threaded per run.
type Memory interface {
	Read(addr uint64, p []byte)
	Write(addr uint64, p []byte)
}

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1

	lineShift = 6
	// LineSize is the granularity at which Sparse records what was
	// written: a page is exactly 64 lines, one bit each of a uint64.
	LineSize = 1 << lineShift
)

// page is what the page map holds for one materialized page: its bytes,
// and where in Sparse.masks its dirty mask is. The mask lives in that
// dense slice rather than behind the bytes so that a page stays one 4 KiB
// allocation and marking a line costs no cache miss of its own.
type page struct {
	data *[pageSize]byte
	slot uint32
}

// LineRun is a run of consecutive lines: lines [Line, Line+Count) of the
// address space, bytes [Line*LineSize, (Line+Count)*LineSize).
type LineRun struct {
	Line  uint32
	Count uint32
}

// Sparse is a paged sparse memory. Unwritten bytes read as zero, so an
// arbitrarily large protected region costs only the pages actually touched.
// Every Write also marks the lines it touches dirty — whoever the writer
// is: an engine write-back, a restored image or an adversary — so that
// "what changed since the last snapshot" is a question the memory answers
// (DirtyLines, AppendDirty, ClearDirty) and not one its writers must
// remember to. The zero value is not ready to use; call NewSparse.
type Sparse struct {
	pages map[uint64]page
	// masks holds one dirty mask per materialized page: bit i set means
	// bytes [64i, 64i+64) of the page were written since ClearDirty.
	masks []uint64
	// dirty lists the pages whose mask is non-zero, in no particular
	// order (AppendDirty sorts it in place).
	dirty []uint64
}

// NewSparse returns an empty sparse memory.
func NewSparse() *Sparse {
	return &Sparse{pages: make(map[uint64]page)}
}

// Read implements Memory.
func (s *Sparse) Read(addr uint64, p []byte) {
	for len(p) > 0 {
		pageNum := addr >> pageShift
		off := addr & pageMask
		n := pageSize - off
		if uint64(len(p)) < n {
			n = uint64(len(p))
		}
		if pg, ok := s.pages[pageNum]; ok {
			copy(p[:n], pg.data[off:off+n])
		} else {
			clear(p[:n])
		}
		p = p[n:]
		addr += n
	}
}

// Write implements Memory.
func (s *Sparse) Write(addr uint64, p []byte) {
	for len(p) > 0 {
		pageNum := addr >> pageShift
		off := addr & pageMask
		n := pageSize - off
		if uint64(len(p)) < n {
			n = uint64(len(p))
		}
		pg, ok := s.pages[pageNum]
		if !ok {
			pg = page{data: new([pageSize]byte), slot: uint32(len(s.masks))}
			s.pages[pageNum] = pg
			s.masks = append(s.masks, 0)
		}
		copy(pg.data[off:off+n], p[:n])
		mask := &s.masks[pg.slot]
		if *mask == 0 {
			s.dirty = append(s.dirty, pageNum)
		}
		first, last := off>>lineShift, (off+n-1)>>lineShift
		*mask |= ^uint64(0) >> (63 - (last - first)) << first
		p = p[n:]
		addr += n
	}
}

// PageCount returns the number of pages materialized so far. Useful for
// asserting that sparse simulation stays sparse.
func (s *Sparse) PageCount() int { return len(s.pages) }

// dirtyBelow returns page pageNum's dirty mask restricted to the lines
// that start below limit.
func (s *Sparse) dirtyBelow(pageNum, limit uint64) uint64 {
	mask := s.masks[s.pages[pageNum].slot]
	base := pageNum << pageShift
	switch {
	case base >= limit:
		return 0
	case limit-base < pageSize:
		lines := (limit - base + LineSize - 1) >> lineShift
		mask &= ^uint64(0) >> (64 - lines)
	}
	return mask
}

// DirtyLines returns how many lines starting below limit were written
// since the last ClearDirty.
func (s *Sparse) DirtyLines(limit uint64) int {
	n := 0
	for _, pageNum := range s.dirty {
		n += bits.OnesCount64(s.dirtyBelow(pageNum, limit))
	}
	return n
}

// AppendDirty appends to runs the maximal runs of dirty lines below limit
// in ascending address order, and to data the bytes those lines hold now,
// run after run; a last line that straddles limit contributes only its
// bytes below it. It does not clear anything. Lines are numbered in 32
// bits: limit must not exceed 1<<38.
func (s *Sparse) AppendDirty(limit uint64, runs []LineRun, data []byte) ([]LineRun, []byte) {
	slices.Sort(s.dirty)
	for _, pageNum := range s.dirty {
		mask := s.dirtyBelow(pageNum, limit)
		pg := s.pages[pageNum]
		for mask != 0 {
			first := uint64(bits.TrailingZeros64(mask))
			count := uint64(bits.TrailingZeros64(^(mask >> first)))
			mask &^= ^uint64(0) >> (64 - count) << first
			line := pageNum<<(pageShift-lineShift) + first
			if k := len(runs) - 1; k >= 0 && uint64(runs[k].Line)+uint64(runs[k].Count) == line {
				runs[k].Count += uint32(count)
			} else {
				runs = append(runs, LineRun{Line: uint32(line), Count: uint32(count)})
			}
			lo, hi := first<<lineShift, (first+count)<<lineShift
			if end := limit - pageNum<<pageShift; hi > end {
				hi = end
			}
			data = append(data, pg.data[lo:hi]...)
		}
	}
	return runs, data
}

// ClearDirty forgets what was written: every line is clean again.
func (s *Sparse) ClearDirty() {
	for _, pageNum := range s.dirty {
		s.masks[s.pages[pageNum].slot] = 0
	}
	s.dirty = s.dirty[:0]
}
