// Package mem provides the untrusted external memory of the paper's model:
// a byte-addressable physical memory held in a page table — pages
// allocated on first write, an image adopted in place, written bytes lent
// without a copy — plus an adversary layer that can tamper with it
// (corruption, replay, splicing, dropped writes) the way a physical
// attacker on the memory bus would.
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

// page is one entry of the page table: the page's bytes, nil while
// nothing in it was written, and its dirty mask, bit i set when bytes
// [64i, 64i+64) were written since ClearDirty. The mask sits beside the
// pointer, so marking a line costs no cache miss the lookup did not.
type page struct {
	data *[pageSize]byte
	mask uint64
}

// LineRun is a run of consecutive lines: lines [Line, Line+Count) of the
// address space, bytes [Line*LineSize, (Line+Count)*LineSize).
type LineRun struct {
	Line  uint32
	Count uint32
}

// Sparse is a paged sparse memory: a page table indexed by page number,
// grown on the first write past its end. Unwritten bytes read as zero and
// a page is allocated only when written, so a memory nobody writes — a
// timing-only machine's — holds no table at all. Every Write also marks
// the lines it touches dirty — whoever the writer is: an engine
// write-back, a restored image or an adversary — so that "what changed
// since the last snapshot" is a question the memory answers (DirtyLines,
// AppendDirty, ClearDirty) and not one its writers must remember to. The
// zero value is an empty memory.
type Sparse struct {
	pages []page
	// count is the number of materialized pages.
	count int
	// dirty lists the pages whose mask is non-zero, in no particular
	// order (AppendDirty sorts it in place).
	dirty []uint64
}

// NewSparse returns an empty sparse memory.
func NewSparse() *Sparse { return &Sparse{} }

// Read implements Memory.
func (s *Sparse) Read(addr uint64, p []byte) {
	for len(p) > 0 {
		pageNum := addr >> pageShift
		off := addr & pageMask
		n := min(pageSize-off, uint64(len(p)))
		if pageNum < uint64(len(s.pages)) && s.pages[pageNum].data != nil {
			copy(p[:n], s.pages[pageNum].data[off:off+n])
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
		n := min(pageSize-off, uint64(len(p)))
		pg := s.page(pageNum)
		if pg.data == nil {
			pg.data = new([pageSize]byte)
			s.count++
		}
		copy(pg.data[off:off+n], p[:n])
		s.mark(pageNum, pg, off, n)
		p = p[n:]
		addr += n
	}
}

// page returns page pageNum's table entry, growing the table to hold it.
func (s *Sparse) page(pageNum uint64) *page {
	if pageNum >= uint64(len(s.pages)) {
		s.pages = append(s.pages, make([]page, pageNum+1-uint64(len(s.pages)))...)
	}
	return &s.pages[pageNum]
}

// mark records bytes [off, off+n) of page pageNum, whose entry is pg, as
// written.
func (s *Sparse) mark(pageNum uint64, pg *page, off, n uint64) {
	if pg.mask == 0 {
		s.dirty = append(s.dirty, pageNum)
	}
	first, last := off>>lineShift, (off+n-1)>>lineShift
	pg.mask |= ^uint64(0) >> (63 - (last - first)) << first
}

// Adopt makes img the memory's bytes from address 0 without copying them:
// each whole page of img becomes a page of the table, and a short last
// page is copied into one of its own. From then on the memory owns img —
// its writes land in it — and the caller must neither write nor keep it.
// Like Write(0, img), it marks every line of img written.
func (s *Sparse) Adopt(img []byte) {
	whole := uint64(len(img)) >> pageShift
	for pageNum := uint64(0); pageNum < whole; pageNum++ {
		pg := s.page(pageNum)
		if pg.data == nil {
			s.count++
		}
		pg.data = (*[pageSize]byte)(img[pageNum<<pageShift:])
		s.mark(pageNum, pg, 0, pageSize)
	}
	s.Write(whole<<pageShift, img[whole<<pageShift:])
}

// View returns the n bytes at addr in place, without copying: a slice of
// the page that holds them, valid until the next Adopt and seeing every
// Write, read-only for the caller. Views taken while nothing writes are
// safe from any number of goroutines. ok is false, and the slice nil,
// when the bytes span two pages or lie in a page nothing was written to;
// Read gives them then. An aligned chunk of a power-of-two size up to a
// page — a 64- or 128-byte hash chunk — always lies in one page.
func (s *Sparse) View(addr uint64, n int) (b []byte, ok bool) {
	pageNum, off := addr>>pageShift, addr&pageMask
	if off+uint64(n) > pageSize || pageNum >= uint64(len(s.pages)) || s.pages[pageNum].data == nil {
		return nil, false
	}
	return s.pages[pageNum].data[off : off+uint64(n) : off+uint64(n)], true
}

// PageCount returns the number of pages materialized so far. Useful for
// asserting that sparse simulation stays sparse.
func (s *Sparse) PageCount() int { return s.count }

// dirtyBelow returns page pageNum's dirty mask restricted to the lines
// that start below limit.
func (s *Sparse) dirtyBelow(pageNum, limit uint64) uint64 {
	mask := s.pages[pageNum].mask
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
		pg := &s.pages[pageNum]
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
		s.pages[pageNum].mask = 0
	}
	s.dirty = s.dirty[:0]
}
