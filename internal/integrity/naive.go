package integrity

import (
	"fmt"

	"memverify/internal/bus"
	"memverify/internal/cache"
	"memverify/internal/telemetry"
)

// Naive places the hash-tree machinery between the L2 and external memory
// without caching any tree node (§5.2's representative naive scheme):
// every L2 miss re-reads and re-verifies the chunk's entire ancestor path
// from memory, and every dirty write-back re-verifies the path and then
// rewrites every hash on it. Each miss therefore costs log_m(N) extra
// memory reads — the order-of-magnitude slowdown of Figure 3.
type Naive struct {
	sys *System

	// anc is the ancestor-image scratch reused across path verifications.
	// A single slice (not a pool) is enough: the naive engine never
	// re-enters itself — evictions triggered by its fills run to
	// completion before the next path walk starts.
	anc [][]byte
}

// NewNaive builds the naive engine. The layout's chunk size must equal the
// L2 block size (the configuration the paper evaluates).
func NewNaive(sys *System) *Naive {
	if sys.Layout == nil {
		panic("integrity: naive engine requires a tree layout")
	}
	if sys.Layout.ChunkSize != sys.BlockSize() {
		panic(fmt.Sprintf("integrity: naive engine requires chunk size == block size (%d != %d)",
			sys.Layout.ChunkSize, sys.BlockSize()))
	}
	return &Naive{sys: sys}
}

// Name implements Engine.
func (e *Naive) Name() string { return "naive" }

// System implements Engine.
func (e *Naive) System() *System { return e.sys }

// InitializeTree implements TreeWalker: every stored hash, bottom-up.
func (e *Naive) InitializeTree() { e.sys.initializeTree(e.sys.hashRecord) }

// readChunkMem reads chunk c's bytes from external memory into a pooled
// image buffer the caller releases with putImg (functional mode only;
// timing-only runs return nil).
func (e *Naive) readChunkMem(c uint64) []byte {
	if !e.sys.Functional {
		return nil
	}
	img := e.sys.getImg()
	e.sys.Mem.Read(e.sys.Layout.ChunkAddr(c), img)
	return img
}

// checkAgainst verifies chunk cur's memory image curImg against the
// stored record want, skipped entirely — always passing — in a timing
// (non-functional) run. The Checks counter advances identically in both.
func (e *Naive) checkAgainst(cur uint64, curImg, want []byte, detail string) {
	s := e.sys
	s.Stat.Checks++
	if s.Functional && !s.hashMatches(cur, curImg, want) {
		s.violation(cur, "naive", detail)
	}
}

// verifyPath checks img (the contents of chunk c as read from memory) and
// every ancestor, reading each ancestor chunk from memory, up to the
// secure root. It returns the cycle the final comparison completes and the
// memory image of c's parent path head (the ancestor chunks read), which
// Evict reuses to rewrite the path. The ancestor slice and its images are
// scratch storage: the caller must hand the images back via
// releaseAncestors before the next path walk.
func (e *Naive) verifyPath(start uint64, c uint64, img []byte, checkFirst bool) (done uint64, ancestors [][]byte) {
	s := e.sys
	ancestors = e.anc[:0]
	// The ancestor addresses are pure layout arithmetic, so all level
	// reads issue immediately and queue on the bus; each level's hash
	// starts when its data arrives. Nothing serializes level-to-level —
	// the bandwidth consumption is the cost, exactly as §5.1 argues.
	done = start
	cur := c
	curImg := img
	curReady := start // when this level's bytes are available to hash
	for {
		hdone := s.Unit.Hash(curReady, s.Layout.ChunkSize)
		if hdone > done {
			done = hdone
		}
		if cur == 0 {
			if s.CheckReads && (checkFirst || cur != c) {
				e.checkAgainst(cur, curImg, s.Root, "root register mismatch")
			}
			e.anc = ancestors
			return done, ancestors
		}
		parent, _, _ := s.Layout.Parent(cur)
		parentImg := e.readChunkMem(parent)
		_, rdone := s.DRAM.Read(start, s.Layout.ChunkSize, bus.Hash)
		s.countExtra(uint64(s.Layout.ChunkSize / s.BlockSize()))
		ancestors = append(ancestors, parentImg)
		if s.CheckReads && (checkFirst || cur != c) {
			var want []byte
			if s.Functional {
				want = s.slotBytes(parentImg, cur)
			}
			e.checkAgainst(cur, curImg, want, "stored hash does not match memory image")
		}
		if rdone > done {
			done = rdone
		}
		cur = parent
		curImg = parentImg
		curReady = rdone
	}
}

// ReadBlock implements Engine: fetch the block, return it speculatively,
// and verify the whole ancestor path from memory in the background.
func (e *Naive) ReadBlock(now uint64, addr uint64) uint64 {
	s := e.sys
	if !s.Protected(addr) {
		return unprotectedRead(s, now, addr, e.Evict)
	}
	c := s.Layout.ChunkOf(addr)
	before := s.Stat.ExtraBlockReads
	img := e.readChunkMem(c)
	s.Stat.DemandBlockReads++
	critical, rdone := s.DRAM.Read(now, s.BlockSize(), bus.Data)
	// The arrived block enters the read buffer until its path check
	// completes; the processor uses it from there while the check drains
	// in the background (§5.8), so a full buffer delays delivery.
	idx, bufStart := s.Unit.ReadBuf.Acquire(rdone)
	if bufStart > critical {
		critical = bufStart
	}
	done, anc := e.verifyPath(bufStart, c, img, true)
	e.releaseAncestors(anc)
	s.Unit.ReadBuf.Release(idx, done)
	s.noteCheck(done)

	s.observePath(s.Stat.ExtraBlockReads - before)
	s.Tel.Emit(telemetry.TrackIntegrity, telemetry.KindTreeWalk,
		now, done, c, s.Stat.ExtraBlockReads-before)
	if s.CheckReads {
		s.observeVerifyOverhead(critical, done)
	}
	ba := s.L2.BlockAddr(addr)
	// Fill copies img before the eviction below can re-enter the engine
	// and reuse the released buffer.
	ev := s.L2.Fill(ba, cache.Data, img)
	s.putImg(img)
	if ev.Valid && ev.Dirty {
		evictAndRelease(s.L2, critical, ev, e.Evict)
	}
	return critical
}

// releaseAncestors hands the pooled ancestor images back to the system.
func (e *Naive) releaseAncestors(anc [][]byte) {
	for _, img := range anc {
		e.sys.putImg(img)
	}
}

// Evict implements Engine: verify the old ancestor path, then write the
// block and every recomputed hash on the path back to memory.
func (e *Naive) Evict(now uint64, line cache.Line, data []byte) uint64 {
	s := e.sys
	if !s.Protected(line.Addr) {
		return unprotectedEvict(s, now, line, data)
	}
	s.Stat.Evictions++
	s.enterWriteBack()
	defer s.leaveWriteBack()
	c := s.Layout.ChunkOf(line.Addr)
	idx, start := s.Unit.WriteBuf.Acquire(now)

	// The ancestors' other slots flow into the recomputed hashes, so they
	// must be authenticated before being reused: verify the ancestor path.
	// The evicted block's own old value is NOT checked — it was verified
	// when it was allocated, and a fully overwritten block may never have
	// had its old value read at all (§5.3's optimization).
	oldImg := e.readChunkMem(c)
	_, rdone := s.DRAM.Read(start, s.Layout.ChunkSize, bus.Hash)
	s.countExtra(uint64(s.Layout.ChunkSize / s.BlockSize()))
	t, ancestors := e.verifyPath(rdone, c, oldImg, false)
	s.putImg(oldImg)

	// Write the new block, then rewrite every hash up the path. Writes
	// are posted (they occupy the bus but nothing waits on them); the
	// hash chain is serial because each parent's new hash depends on the
	// child's.
	if s.Functional {
		s.Mem.Write(line.Addr, data)
	}
	s.DRAM.Write(t, s.BlockSize(), bus.Data)
	s.Stat.DataBlockWrites++

	// The hash chain is computed from the processor's own copy of the
	// chunk (the evicted line, hashed where it sits — this frame owns its
	// buffer until it returns), never re-read from untrusted memory — a
	// dropped or substituted write must leave the stored hashes covering
	// what the processor *meant* to write, so the next read detects it.
	cur := c
	curImg := data
	for level := 0; ; level++ {
		var h []byte
		if s.Functional {
			// The digest scratch is consumed (copied into the parent image
			// or the root) before the next iteration recomputes it.
			h = s.hashChunkScratch(curImg)
		}
		hd := s.Unit.Hash(t, s.Layout.ChunkSize)
		if hd > t {
			t = hd
		}
		if cur == 0 {
			if h != nil {
				s.Root = append(s.Root[:0], h...)
			}
			break
		}
		slotAddr, _ := s.Layout.HashAddr(cur)
		parent, _, _ := s.Layout.Parent(cur)
		parentImg := ancestors[level]
		if s.Functional {
			off := slotAddr - s.Layout.ChunkAddr(parent)
			copy(parentImg[off:], h)
			s.Mem.Write(s.Layout.ChunkAddr(parent), parentImg)
		}
		s.DRAM.Write(t, s.Layout.ChunkSize, bus.Hash)
		s.Stat.HashBlockWrites += uint64(s.Layout.ChunkSize / s.BlockSize())
		cur = parent
		curImg = parentImg
	}
	e.releaseAncestors(ancestors)
	s.Unit.WriteBuf.Release(idx, t)
	s.noteCheck(t)
	s.Tel.Emit(telemetry.TrackIntegrity, telemetry.KindWriteBack, now, t, c, 0)
	return t
}

// AllocateFullWrite implements Engine: naive chunks equal blocks, so a
// full overwrite needs no fetch or path verification on allocation (the
// write-back will rebuild the path hashes from the new data).
func (e *Naive) AllocateFullWrite(now uint64, addr uint64) uint64 {
	return allocateFullWrite(e.sys, now, addr, e.Evict)
}

// Flush implements Engine.
func (e *Naive) Flush(now uint64) uint64 {
	return flushVia(e.sys, now, e.Evict)
}
