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
	"sync/atomic"
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
// nothing in it was written, its dirty mask, bit i set when bytes
// [64i, 64i+64) were written since the last Freeze, and the hold of the last
// frozen view that took the bytes, nil when none did since the page was
// last written. The mask and hold sit beside the pointer, so marking a
// line or checking the hold costs no cache miss the lookup did not.
type page struct {
	data *[pageSize]byte
	mask uint64
	hold *hold
}

// hold is what a page entry keeps of the frozen view that took its bytes:
// only the view's release flag, so that a page never keeps a released
// view's entries, or the old pages they point at, alive.
type hold struct{ released atomic.Bool }

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
// Freeze) and not one its writers must remember to. The zero
// value is an empty memory.
type Sparse struct {
	pages []page
	// count is the number of materialized pages.
	count int
	// dirty lists the pages whose mask is non-zero, in no particular
	// order (Freeze sorts it in place).
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
		} else if pg.hold != nil {
			unhold(pg)
		}
		copy(pg.data[off:off+n], p[:n])
		s.mark(pageNum, pg, off, n)
		p = p[n:]
		addr += n
	}
}

// unhold makes pg's bytes the memory's own again before a write lands in
// them: while the frozen view that took them is open it keeps them, and
// the memory goes on in a fresh copy; once the view is released — and its
// release happens before the load that sees it — they are written in
// place.
func unhold(pg *page) {
	if !pg.hold.released.Load() {
		cp := new([pageSize]byte)
		*cp = *pg.data
		pg.data = cp
	}
	pg.hold = nil
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
		// A frozen view holding the old bytes keeps them: nothing is
		// written over them.
		pg.data, pg.hold = (*[pageSize]byte)(img[pageNum<<pageShift:]), nil
		s.mark(pageNum, pg, 0, pageSize)
	}
	s.Write(whole<<pageShift, img[whole<<pageShift:])
}

// View returns the n bytes at addr in place, without copying: a slice of
// the page that holds them, valid until the next Adopt, read-only for the
// caller. It sees every later Write except those made while a frozen view
// (Freeze) holds the page: the first of those moves the memory to a fresh
// copy of the page, and the slice stays on the old one. So a caller must
// not keep a View across a Write. Views taken while nothing writes are
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
// since the last Freeze.
func (s *Sparse) DirtyLines(limit uint64) int {
	n := 0
	for _, pageNum := range s.dirty {
		n += bits.OnesCount64(s.dirtyBelow(pageNum, limit))
	}
	return n
}

// clearDirty forgets what was written: every line is clean again.
func (s *Sparse) clearDirty() {
	for _, pageNum := range s.dirty {
		s.pages[pageNum].mask = 0
	}
	s.dirty = s.dirty[:0]
}

// Frozen is a frozen view of a Sparse below a limit: the bytes the memory
// held, and the lines written since the last Freeze, at the moment the
// view was taken. It copies page entries, not bytes. While the view is
// open, the first Write to a page it holds moves the memory to a fresh
// copy of that page and leaves the view the old one; every other write
// lands in place. Release ends that: the view must not be used after it.
//
// Only the memory's owner takes views and writes; an open view may be
// read from another goroutine while the owner writes, and released from
// it. Views may overlap, and be released in any order.
type Frozen struct {
	limit uint64
	delta bool
	pages []frozenPage
	// lineBytes is the length of the dirty lines' bytes below limit.
	lineBytes uint64
	hold      *hold
}

// frozenPage is one page a view holds: its number, its bytes and its
// dirty mask restricted to lines that start below the view's limit.
type frozenPage struct {
	num  uint64
	data *[pageSize]byte
	mask uint64
}

// zeroPage is every unwritten page of a view's image.
var zeroPage [pageSize]byte

// Freeze takes a frozen view of the memory below limit and clears every
// dirty mask. A delta view holds only the pages with lines dirty below
// limit; a full one holds every written page below it. Lines are numbered
// in 32 bits: limit must not exceed 1<<38.
func (s *Sparse) Freeze(limit uint64, delta bool) *Frozen {
	f := s.frozen(limit, delta)
	s.clearDirty()
	return f
}

// frozen is Freeze without the clearDirty.
func (s *Sparse) frozen(limit uint64, delta bool) *Frozen {
	f := &Frozen{limit: limit, delta: delta, hold: new(hold)}
	take := func(pageNum uint64) {
		mask := s.dirtyBelow(pageNum, limit)
		if delta && mask == 0 {
			return
		}
		pg := &s.pages[pageNum]
		f.pages = append(f.pages, frozenPage{num: pageNum, data: pg.data, mask: mask})
		if pg.hold != nil && !pg.hold.released.Load() {
			// An open view holds these bytes already: this one shares
			// them, and the memory goes on in a copy that neither holds.
			cp := new([pageSize]byte)
			*cp = *pg.data
			pg.data, pg.hold = cp, nil
		} else {
			pg.hold = f.hold
		}
		f.lineBytes += uint64(bits.OnesCount64(mask)) << lineShift
		if rel := limit - pageNum<<pageShift; rel < pageSize && rel%LineSize != 0 && mask>>(rel>>lineShift)&1 != 0 {
			f.lineBytes -= LineSize - rel%LineSize // the last line is cut at limit
		}
	}
	if delta {
		slices.Sort(s.dirty)
		f.pages = make([]frozenPage, 0, len(s.dirty))
		for _, pageNum := range s.dirty {
			take(pageNum)
		}
		return f
	}
	n := min(uint64(len(s.pages)), (limit+pageMask)>>pageShift)
	f.pages = make([]frozenPage, 0, min(uint64(s.count), n))
	for pageNum := uint64(0); pageNum < n; pageNum++ {
		if s.pages[pageNum].data != nil {
			take(pageNum)
		}
	}
	return f
}

// Delta reports whether the view holds only the dirty lines' pages.
func (f *Frozen) Delta() bool { return f.delta }

// Limit returns the limit the view was taken below: its image's length.
func (f *Frozen) Limit() uint64 { return f.limit }

// LineBytes returns the length of the bytes Lines yields.
func (f *Frozen) LineBytes() uint64 { return f.lineBytes }

// Image calls fn with the image below the limit page by page, in address
// order — an unwritten page as a shared page of zeros, the last page cut
// at the limit — and stops at fn's first error. It is the whole image only
// of a full view; of a delta view, only the dirty pages hold their bytes.
// fn must not keep or write the slices.
func (f *Frozen) Image(fn func([]byte) error) error {
	held := f.pages
	for base := uint64(0); base < f.limit; base += pageSize {
		p := zeroPage[:]
		if len(held) > 0 && held[0].num == base>>pageShift {
			p, held = held[0].data[:], held[1:]
		}
		if err := fn(p[:min(pageSize, f.limit-base)]); err != nil {
			return err
		}
	}
	return nil
}

// AppendRuns appends to runs the maximal runs of the view's dirty lines in
// ascending address order, growing runs at most once.
func (f *Frozen) AppendRuns(runs []LineRun) []LineRun {
	if n := f.runCount(); cap(runs)-len(runs) < n {
		runs = append(make([]LineRun, 0, len(runs)+n), runs...)
	}
	f.eachRun(func(pg *frozenPage, first, count uint64) {
		line := pg.num<<(pageShift-lineShift) + first
		if k := len(runs) - 1; k >= 0 && uint64(runs[k].Line)+uint64(runs[k].Count) == line {
			runs[k].Count += uint32(count)
		} else {
			runs = append(runs, LineRun{Line: uint32(line), Count: uint32(count)})
		}
	})
	return runs
}

// Lines calls fn with the bytes of the view's dirty lines, run after run
// in the order of AppendRuns's — a last line that straddles the limit
// contributes only its bytes below it — and stops at fn's first error.
// fn must not keep or write the slices.
func (f *Frozen) Lines(fn func([]byte) error) error {
	var err error
	f.eachRun(func(pg *frozenPage, first, count uint64) {
		if err != nil {
			return
		}
		lo, hi := first<<lineShift, (first+count)<<lineShift
		if end := f.limit - pg.num<<pageShift; hi > end {
			hi = end
		}
		err = fn(pg.data[lo:hi])
	})
	return err
}

// runCount returns the number of runs AppendRuns appends: each page's
// runs, less one wherever a run goes on from one held page into the next.
func (f *Frozen) runCount() int {
	n := 0
	for i, pg := range f.pages {
		n += bits.OnesCount64(pg.mask &^ (pg.mask << 1))
		if prev := i - 1; prev >= 0 && pg.mask&1 != 0 && f.pages[prev].num+1 == pg.num && f.pages[prev].mask>>63 != 0 {
			n--
		}
	}
	return n
}

// eachRun calls fn with each run of dirty lines within each held page:
// lines [first, first+count) of page pg.
func (f *Frozen) eachRun(fn func(pg *frozenPage, first, count uint64)) {
	for i := range f.pages {
		pg := &f.pages[i]
		for mask := pg.mask; mask != 0; {
			first := uint64(bits.TrailingZeros64(mask))
			count := uint64(bits.TrailingZeros64(^(mask >> first)))
			mask &^= ^uint64(0) >> (64 - count) << first
			fn(pg, first, count)
		}
	}
}

// Release ends the view: from here on writes to the pages it held land in
// place. It may be called from any goroutine, more than once; the view
// must not be used after it.
func (f *Frozen) Release() {
	f.hold.released.Store(true)
}
