package integrity

import (
	"fmt"

	"memverify/internal/cache"
)

// TreeWalker is implemented by every protected engine: the two bottom-up
// passes over external memory that §5.7.2's tree computation describes,
// one writing every stored record and one checking it.
type TreeWalker interface {
	// InitializeTree computes all stored records from current memory
	// contents and installs the root, entering secure mode instantly. It
	// is the fast functional equivalent of the §5.7.2 boot procedure for
	// simulations that skip initialization (the paper likewise ignores
	// initialization overhead in its steady-state measurements).
	InitializeTree()
	// CheckTree is the same walk comparing instead of writing: every
	// chunk's memory image against the record its parent stores, chunk 0
	// against the root register, with the engine's own read check. See
	// System.checkTree.
	CheckTree() error
}

// walkTree visits every chunk from the last down to chunk 0, so each
// chunk comes after all of its children, handing visit the chunk's image
// as external memory holds it. The walk stops when visit returns false.
// It reads s.Mem directly: no cache, bus, DRAM or hash-unit model is
// touched and no cycle is charged.
func (s *System) walkTree(visit func(c uint64, img []byte) bool) {
	img := s.getImg()
	defer s.putImg(img)
	for c := s.Layout.TotalChunks; c > 0; {
		c--
		s.Mem.Read(s.Layout.ChunkAddr(c), img)
		if !visit(c, img) {
			return
		}
	}
}

// initializeTree stores record's output for every chunk in its parent's
// slot, and chunk 0's in the root register. Under the timing-only unit
// nothing ever compares stored records, so the walk — the dominant
// construction cost on large protected regions — is skipped.
func (s *System) initializeTree(record func(c uint64, img []byte) []byte) {
	if s.skipDigests() {
		s.Root = append(s.Root[:0], s.timingTag(0)...)
		return
	}
	s.walkTree(func(c uint64, img []byte) bool {
		rec := record(c, img)
		if addr, ok := s.Layout.HashAddr(c); ok {
			s.Mem.Write(addr, rec)
		} else {
			s.Root = append(s.Root[:0], rec...)
		}
		return true
	})
}

// checkTree verifies the whole external-memory image against the root
// register in one pass: every chunk's image, read from memory, is checked
// with verify against the record its parent's image stores (the root
// register for chunk 0). Each stored byte is covered — data, the records
// of every interior chunk and their unused slots — because every chunk is
// checked whole. A mismatch is a violation exactly as on a demand read:
// it goes through System.violation, so the record and halt policies see
// it, and under PolicyRetry the chunk is re-read once first. The walk
// stops at the first violation and returns it.
//
// The check reads no cached line, so external memory must hold the
// machine's whole state — dirty lines flushed — or a clean image fails
// against the root that covers them. It charges nothing
// to any timing model or engine counter. Timing-only and non-functional
// systems have no records to compare, so it returns nil at once.
func (s *System) checkTree(scheme string, verify func(c uint64, img, stored []byte) bool) error {
	if !s.verifyData() {
		return nil
	}
	var found error
	// A chunk's siblings are consecutive chunks, so the walk meets them
	// one after another: their parent's image is read once for all.
	parentImg := s.getImg()
	defer s.putImg(parentImg)
	parent := ^uint64(0) // none read yet
	s.walkTree(func(c uint64, img []byte) bool {
		want := s.Root
		if p, _, isRoot := s.Layout.Parent(c); !isRoot {
			if p != parent {
				s.Mem.Read(s.Layout.ChunkAddr(p), parentImg)
				parent = p
			}
			want = s.slotBytes(parentImg, c)
		}
		if verify(c, img, want) {
			return true
		}
		detail := "stored record does not match memory image"
		if s.Policy == PolicyRetry {
			s.Mem.Read(s.Layout.ChunkAddr(c), img)
			if s.retried(verify(c, img, want)) {
				return true
			}
			detail += " (persistent after re-fetch)"
		}
		found = s.violation(c, scheme, detail)
		return false
	})
	return found
}

// InitializeByTouch performs the paper's actual initialization procedure
// (§5.7.2) through the cache and engine:
//
//  1. hashing is enabled for writes but not reads (CheckReads off, so no
//     exceptions are raised while the tree is still garbage),
//  2. every chunk to be covered is touched (written), leaving it dirty in
//     the cache,
//  3. the cache is flushed, cascading write-backs compute the whole tree,
//  4. verification exceptions are armed.
//
// It requires a functional system and returns the completion cycle. The
// incremental scheme must use InitializeTree instead: its write-backs only
// ever update records incrementally, so the flush trick cannot build MACs
// from scratch (§5.7.2's closing footnote); calling this on it returns an
// error.
func InitializeByTouch(e Engine, now uint64) (uint64, error) {
	s := e.System()
	if !s.Functional {
		return 0, fmt.Errorf("integrity: touch initialization requires a functional system")
	}
	if _, ok := e.(*Incr); ok {
		return 0, fmt.Errorf("integrity: the i scheme cannot initialize by touch; use InitializeTree")
	}
	s.CheckReads = false

	bs := uint64(s.BlockSize())
	t := now
	for ba := s.Layout.DataStart(); ba < s.Layout.Size(); ba += bs {
		// Touch: a write to each block. Write-allocate on miss, then dirty.
		if ln := s.L2.Write(ba, cache.Data); ln == nil {
			t = e.ReadBlock(t, ba)
			if ln := s.L2.Write(ba, cache.Data); ln == nil {
				panic("integrity: touched block not resident after allocation (engine bug)")
			}
		}
	}
	t = e.Flush(t)
	s.CheckReads = true
	return t, nil
}
