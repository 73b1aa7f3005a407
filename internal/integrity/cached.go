package integrity

import (
	"fmt"

	"memverify/internal/bus"
	"memverify/internal/cache"
	"memverify/internal/telemetry"
)

// noDemand marks a chunk fetch with no processor-demanded block (hash-slot
// fetches and write-back completion reads).
const noDemand = ^uint64(0)

// Cached implements the paper's integrated hash-tree/cache schemes: `c`
// (§5.3, one cache block per chunk) and `m` (§5.4, a chunk spanning
// several blocks). Tree nodes are cached in the L2; a cached node is
// trusted on-chip state and acts as the root of a smaller tree, so a miss
// stops recursing as soon as it finds an ancestor's hash resident.
//
// Re-entrancy: cache fills evict victims whose write-backs recurse back
// into the engine, so a verification can run in the middle of another
// chunk's write-back. Two disciplines keep the §5.3 invariant ("stored
// records cover chunks as they are in memory") observable at every
// re-entrant point: accesses to a line sitting in the write buffer are
// forwarded to it (never re-fetched from memory), and within one
// operation the stored record is fetched before the chunk image is
// composed, so both come from the same quiescent state.
//
// The incremental scheme `i` embeds Cached and replaces the write-back and
// verification hooks.
type Cached struct {
	sys    *System
	scheme string

	// verify checks a chunk's memory image against its stored record.
	verify func(c uint64, img, stored []byte) bool
	// record computes the stored record for a chunk's new image on
	// write-back. The result may live in scratch storage that the next
	// engine operation reuses: callers that hold it across re-entrant
	// work must copy it first.
	record func(c uint64, img []byte) []byte
	// evictFn processes a dirty victim; Incr overrides it with the
	// constant-work incremental write-back.
	evictFn evictFunc

	// stFree pools chunkState values across write-backs; a free list
	// because write-backs nest.
	stFree []*chunkState
}

// NewCached builds the c scheme (one block per chunk) or the m scheme
// (several blocks per chunk), depending on the layout's chunk size.
func NewCached(sys *System) *Cached {
	if sys.Layout == nil {
		panic("integrity: cached engine requires a tree layout")
	}
	if sys.Layout.ChunkSize%sys.BlockSize() != 0 {
		panic(fmt.Sprintf("integrity: chunk size %d not a multiple of block size %d",
			sys.Layout.ChunkSize, sys.BlockSize()))
	}
	sys.blocksPerChunk = sys.Layout.ChunkSize / sys.BlockSize()
	e := &Cached{sys: sys}
	if sys.chunkBlocks() == 1 {
		e.scheme = "c"
	} else {
		e.scheme = "m"
	}
	e.verify = sys.hashMatches
	e.record = sys.hashRecord
	e.evictFn = e.evictCached
	return e
}

// Name implements Engine.
func (e *Cached) Name() string { return e.scheme }

// System implements Engine.
func (e *Cached) System() *System { return e.sys }

// InitializeTree implements TreeWalker with the engine's record: a hash
// for c and m, a fresh XOR-MAC for the embedding Incr (which cannot
// initialize by touch, §5.7.2's footnote).
func (e *Cached) InitializeTree() { e.sys.initializeTree(e.record) }

// ReadBlock implements Engine: the ReadAndCheck algorithm of §5.3/§5.4 for
// a processor-demanded block.
func (e *Cached) ReadBlock(now uint64, addr uint64) uint64 {
	s := e.sys
	if !s.Protected(addr) {
		return unprotectedRead(s, now, addr, e.evictFn)
	}
	c := s.Layout.ChunkOf(addr)
	before := s.Stat.ExtraBlockReads
	img, ready, _ := e.readAndCheckChunk(now, c, s.L2.BlockAddr(addr))
	e.fillChunk(ready, c, img, s.L2.BlockAddr(addr))
	s.putImg(img)
	s.observePath(s.Stat.ExtraBlockReads - before)
	return ready
}

// Evict implements Engine.
func (e *Cached) Evict(now uint64, line cache.Line, data []byte) uint64 {
	return e.evictFn(now, line, data)
}

// AllocateFullWrite implements Engine. With one block per chunk the old
// contents contribute nothing to the next stored hash, so the fetch and
// check are skipped entirely (§5.3's optimization); multi-block chunks
// still need the sibling data authenticated and take the ordinary path.
func (e *Cached) AllocateFullWrite(now uint64, addr uint64) uint64 {
	s := e.sys
	if s.Protected(addr) && s.chunkBlocks() > 1 {
		done := e.ReadBlock(now, addr)
		ba := s.L2.BlockAddr(addr)
		for try := 0; s.L2.Write(ba, cache.Data) == nil; try++ {
			if try == fillRetries {
				panic("integrity: write-allocate failed to cache the block")
			}
			done = e.ReadBlock(done, addr)
		}
		return done
	}
	return allocateFullWrite(s, now, addr, e.evictFn)
}

// Flush implements Engine.
func (e *Cached) Flush(now uint64) uint64 {
	return flushVia(e.sys, now, e.evictFn)
}

// readAndCheckChunk is the ReadAndCheckChunk algorithm: fetch the chunk's
// stored record through the cache (recursing on a miss), assemble the
// chunk's memory image — clean cached blocks come from the cache, the
// rest from external memory — return data for speculative use as soon as
// it arrives, and hash/compare in the background.
//
// The stored record is fetched first: its recursion is the only place
// other write-backs can run, so composing the image afterwards guarantees
// record and image are snapshots of the same state.
//
// demandBA, when not noDemand, is the block address the processor is
// waiting on: it is issued as its own critical-word-first read and `ready`
// is its arrival. Otherwise `ready` is when the whole image is available.
//
// The returned image comes from the system's scratch pool; the caller must
// release it with putImg once it is done with it.
func (e *Cached) readAndCheckChunk(now uint64, c uint64, demandBA uint64) (img []byte, ready, checkDone uint64) {
	s := e.sys
	s.enter()
	defer s.leave()

	bs := s.BlockSize()
	base := s.Layout.ChunkAddr(c)
	_, bclass := s.classFor(c)
	start := now
	extrasBefore := s.Stat.ExtraBlockReads

	// 1. Fetch the chunk's stored record (through the cache; recursive).
	// The root lives in the secure register and is aliased, not copied;
	// every other record arrives in a pooled buffer released after the
	// compare below.
	var stored []byte
	storedPooled := false
	storedReady := start
	if c == 0 {
		stored = s.Root
	} else {
		slotAddr, _ := s.Layout.HashAddr(c)
		stored, storedReady = e.readValue(start, slotAddr, s.Layout.HashSize)
		storedPooled = true
	}

	// 2. Compose the memory image; no recursion from here to the compare.
	img, memBlocks := s.composeImage(c)

	demandIdx := -1
	if demandBA != noDemand {
		demandIdx = int((demandBA - base) / uint64(bs))
	}
	ready = start + s.L2Latency
	dataDone := start
	extra := 0
	for _, i := range memBlocks {
		if i == demandIdx {
			crit, done := s.DRAM.Read(start, bs, bclass)
			s.Stat.DemandBlockReads++
			ready = crit
			if done > dataDone {
				dataDone = done
			}
		} else {
			extra++
		}
	}
	if extra > 0 {
		_, done := s.DRAM.Read(start, extra*bs, bus.Hash)
		s.countExtra(uint64(extra))
		if done > dataDone {
			dataDone = done
		}
	}
	if demandIdx < 0 {
		ready = dataDone
	}

	// 3. The arriving chunk enters the read buffer (Figure 2a) and stays
	// until its check completes. A full buffer back-pressures the
	// transfer: delivery — including the speculative copy to the
	// processor — waits for a free entry.
	idx, bufStart := s.Unit.ReadBuf.Acquire(dataDone)
	if bufStart > dataDone && bufStart > ready {
		ready = bufStart
	}
	hdone := s.Unit.Hash(bufStart, s.Layout.ChunkSize)

	checkDone = hdone
	if storedReady > checkDone {
		checkDone = storedReady
	}
	if s.CheckReads {
		s.Stat.Checks++
		if s.Functional && !e.verify(c, img, stored) {
			s.violation(c, e.scheme, "stored record does not match memory image")
		}
	}
	if s.Trace != nil {
		s.Trace("verify", c)
	}
	if storedPooled {
		s.putRec(stored)
	}
	s.Unit.ReadBuf.Release(idx, checkDone)
	s.noteCheck(checkDone)
	s.Tel.Emit(telemetry.TrackIntegrity, telemetry.KindTreeWalk,
		now, checkDone, c, s.Stat.ExtraBlockReads-extrasBefore)
	if demandBA != noDemand && s.CheckReads {
		s.observeVerifyOverhead(ready, checkDone)
	}
	return img, ready, checkDone
}

// readValue is the internal ReadAndCheck for a record-sized value at addr:
// served from the L2 when its block is resident (a cached tree node is
// trusted), forwarded from the write buffer when its line is mid-eviction,
// and otherwise fetched, verified and cached recursively. The value is
// extracted from the freshly cached line *after* the recursion, so nested
// write-backs that ran meanwhile are reflected.
//
// The returned value lives in a pooled record buffer (nil in timing-only
// mode); the caller releases it with putRec.
func (e *Cached) readValue(now uint64, addr uint64, size int) ([]byte, uint64) {
	s := e.sys
	ba := s.L2.BlockAddr(addr)
	c := s.Layout.ChunkOf(addr)
	cclass, _ := s.classFor(c)
	owner := s.cacheFor(c)
	for attempt := 0; ; attempt++ {
		if ln := owner.Read(ba, cclass); ln != nil {
			if !s.Functional {
				return nil, now + s.L2Latency
			}
			off := addr - ba
			return append(s.getRec(size), owner.Bytes(ln)[off:off+uint64(size)]...), now + s.L2Latency
		}
		if data, ok := s.inflightData(ba); ok {
			if data == nil {
				return nil, now + s.L2Latency
			}
			off := addr - ba
			return append(s.getRec(size), data[off:off+uint64(size)]...), now + s.L2Latency
		}
		img, ready, _ := e.readAndCheckChunk(now, c, noDemand)
		e.fillChunk(ready, c, img, ba)
		s.putImg(img)
		now = ready
		if attempt > 4 {
			panic("integrity: slot block will not stay resident (engine bug)")
		}
	}
}

// writeValue is the Write operation of §5.3 applied to a stored record:
// modify it directly in the cache on a hit or in the write buffer when the
// line is mid-eviction; otherwise write-allocate by fetching and verifying
// the containing chunk first. allocated reports whether the slow
// (recursive) path ran, which callers use to detect that other write-backs
// may have interleaved.
func (e *Cached) writeValue(now uint64, addr uint64, val []byte) (done uint64, allocated bool) {
	s := e.sys
	ba := s.L2.BlockAddr(addr)
	c := s.Layout.ChunkOf(addr)
	cclass, _ := s.classFor(c)
	done = now
	owner := s.cacheFor(c)
	ln := owner.Write(ba, cclass)
	if ln == nil {
		if data, ok := s.inflightData(ba); ok {
			if s.Trace != nil {
				s.Trace("writeValue-forward", addr)
			}
			if data != nil && val != nil {
				copy(data[addr-ba:], val)
			}
			return now + s.L2Latency, false
		}
		allocated = true
		for try := 0; ln == nil; try++ {
			if try == fillRetries {
				panic("integrity: write-allocate failed to cache the slot block (engine bug)")
			}
			img, ready, _ := e.readAndCheckChunk(now, c, noDemand)
			e.fillChunk(ready, c, img, ba)
			s.putImg(img)
			done = ready
			ln = owner.Write(ba, cclass)
		}
	}
	if s.Trace != nil {
		mode := uint64(0)
		if allocated {
			mode = 1
		}
		s.Trace("writeValue", addr, mode)
	}
	if b := owner.Bytes(ln); b != nil && val != nil {
		copy(b[addr-ba:], val)
	}
	return done + s.L2Latency, allocated
}

// fillChunk installs the uncached blocks of chunk c into the cache,
// handling dirty victims through the engine's write-back. Blocks whose
// lines are sitting in the write buffer are skipped: re-inserting them
// would resurrect a stale copy.
//
// A dirty victim's write-back (and anything nested under it) may write
// blocks of this very chunk to memory — a dirty sibling in the same set
// is a routine victim in the small dedicated verification cache. The
// image was verified against memory as it stood at compose time, so once
// a write-back has run the remaining blocks can no longer be installed
// as clean copies: a clean line must equal memory, and a stale install
// here poisons every later verification of the chunk. The fill therefore
// stops at the first dirty eviction; skipped blocks simply miss and take
// the verified fetch path again. The block the caller actually needs
// resident (prio, or noDemand) goes first, so it is installed before any
// write-back can cut the fill short.
func (e *Cached) fillChunk(at uint64, c uint64, img []byte, prio uint64) {
	s := e.sys
	bs := s.BlockSize()
	base := s.Layout.ChunkAddr(c)
	cclass, _ := s.classFor(c)
	target := s.cacheFor(c)
	k := s.chunkBlocks()
	prioIdx := -1
	if prio != noDemand {
		prioIdx = int((prio - base) / uint64(bs))
	}
	for n := 0; n < k; n++ {
		i := n
		if prioIdx >= 0 {
			switch {
			case n == 0:
				i = prioIdx
			case n <= prioIdx:
				i = n - 1
			}
		}
		ba := base + uint64(i*bs)
		if target.Peek(ba) != nil {
			continue
		}
		if _, ok := s.inflightData(ba); ok {
			continue
		}
		var data []byte
		if img != nil {
			data = img[i*bs : (i+1)*bs]
		}
		if ev := target.Fill(ba, cclass, data); ev.Valid && ev.Dirty {
			evictAndRelease(target, at, ev, e.evictFn)
			return
		}
	}
}

// chunkState is one write-back's view of its chunk: which blocks are in
// hand (cached siblings plus the evicted line) and which are dirty. It is
// indexed by chunk-relative block number and pooled per write-back frame:
// a map here cost one allocation per eviction on the simulator's hottest
// path.
type chunkState struct {
	data    [][]byte // per-block live bytes; meaningful only where present
	present []bool
	dirty   []int
	count   int // number of blocks present
}

// reset prepares the state for a chunk of k blocks.
func (st *chunkState) reset(k int) {
	if cap(st.present) < k {
		st.data = make([][]byte, k)
		st.present = make([]bool, k)
	}
	st.data = st.data[:k]
	st.present = st.present[:k]
	for i := 0; i < k; i++ {
		st.data[i] = nil
		st.present[i] = false
	}
	st.dirty = st.dirty[:0]
	st.count = 0
}

// getState acquires a pooled chunkState; release with putState.
func (e *Cached) getState() *chunkState {
	if n := len(e.stFree); n > 0 {
		st := e.stFree[n-1]
		e.stFree = e.stFree[:n-1]
		return st
	}
	return &chunkState{}
}

func (e *Cached) putState(st *chunkState) { e.stFree = append(e.stFree, st) }

// collectChunk gathers the live chunk state around an evicted line into st.
func (e *Cached) collectChunk(st *chunkState, c uint64, evIdx int, evData []byte) {
	s := e.sys
	bs := s.BlockSize()
	base := s.Layout.ChunkAddr(c)
	st.reset(s.chunkBlocks())
	st.data[evIdx] = evData
	st.present[evIdx] = true
	st.dirty = append(st.dirty, evIdx)
	st.count = 1
	owner := s.cacheFor(c)
	for i := 0; i < s.chunkBlocks(); i++ {
		if i == evIdx {
			continue
		}
		ba := base + uint64(i*bs)
		if ln := owner.Peek(ba); ln != nil {
			st.data[i] = owner.Bytes(ln)
			st.present[i] = true
			st.count++
			if ln.Dirty {
				st.dirty = append(st.dirty, i)
			}
		}
	}
}

// evictCached is the Write-Back algorithm of §5.3/§5.4: assemble the
// chunk's new image (evicted line, cached siblings, and — after a
// verified completion read — memory for anything missing), hash it,
// update the parent record through the cache, and write the dirty blocks
// out. If the record update had to write-allocate (running other
// write-backs in the process), the image is re-collected and the record
// recomputed, so the final record and the written data always agree.
func (e *Cached) evictCached(now uint64, line cache.Line, data []byte) uint64 {
	s := e.sys
	if !s.Protected(line.Addr) {
		return unprotectedEvict(s, now, line, data)
	}
	s.enter()
	defer s.leave()
	s.enterWriteBack()
	defer s.leaveWriteBack()
	s.Stat.Evictions++

	bs := s.BlockSize()
	c := s.Layout.ChunkOf(line.Addr)
	base := s.Layout.ChunkAddr(c)
	cclass, bclass := s.classFor(c)
	evIdx := int((line.Addr - base) / uint64(bs))

	// The line now sits in the write buffer; forward accesses to it.
	s.registerInflight(line.Addr, data)
	defer s.unregisterInflight(line.Addr)

	idx, start := s.Unit.WriteBuf.Acquire(now)

	// §5.4 step 1: if the chunk is not entirely in hand, fetch and verify
	// the missing data. (For the c scheme k==1, so this never triggers.)
	st := e.getState()
	defer e.putState(st)
	e.collectChunk(st, c, evIdx, data)
	dataReady := start
	if st.count < s.chunkBlocks() {
		img, ready, _ := e.readAndCheckChunk(start, c, noDemand)
		s.putImg(img)
		dataReady = ready
	}

	// Compute the record over the new image and install it in the parent.
	// A write-allocate inside writeValue can run nested write-backs that
	// change this chunk (a sibling evicted, a slot in this chunk updated
	// through forwarding), so re-collect and recompute until the update
	// lands without recursion.
	hdone := s.Unit.Hash(dataReady, s.Layout.ChunkSize)
	done := hdone
	var newImg []byte
	var recBuf []byte
	// A single-block chunk's new image is the evicted line itself: it is
	// hashed where it sits in the write buffer (forwarded slot updates land
	// in those same bytes), with no image buffer and no copy.
	single := s.chunkBlocks() == 1
	if s.Functional {
		if single {
			newImg = data
		} else {
			newImg = s.getImg()
			defer s.putImg(newImg)
		}
		// rec must survive the re-entrant writeValue below, so it gets its
		// own pooled buffer rather than the shared digest scratch.
		recBuf = s.getRec(s.Layout.HashSize)
	}
	for attempt := 0; ; attempt++ {
		e.collectChunk(st, c, evIdx, data)
		if s.Functional && !single {
			// Compose the new image from live state: in-hand blocks carry
			// the freshest on-chip values; everything else is whatever is
			// in memory right now (already authenticated by the completion
			// read above, or written by an interleaved nested write-back).
			for i := 0; i < s.chunkBlocks(); i++ {
				if st.present[i] {
					copy(newImg[i*bs:(i+1)*bs], st.data[i])
				} else {
					s.Mem.Read(base+uint64(i*bs), newImg[i*bs:(i+1)*bs])
				}
			}
		}
		var rec []byte
		if s.Functional {
			recBuf = append(recBuf[:0], e.record(c, newImg)...)
			rec = recBuf
		}
		if c == 0 {
			if rec != nil {
				s.Root = append(s.Root[:0], rec...)
			}
			break
		}
		slotAddr, _ := s.Layout.HashAddr(c)
		d, allocated := e.writeValue(done, slotAddr, rec)
		if d > done {
			done = d
		}
		if !allocated {
			break
		}
		if attempt > 8 {
			panic("integrity: record update will not converge (engine bug)")
		}
	}

	// Write the dirty blocks to memory and mark cached copies clean; the
	// record installed above covers exactly these bytes.
	for _, i := range st.dirty {
		ba := base + uint64(i*bs)
		if s.Functional {
			if i == evIdx {
				s.Mem.Write(ba, data)
			} else {
				s.Mem.Write(ba, newImg[i*bs:(i+1)*bs])
			}
		}
		if d := s.DRAM.Write(hdone, bs, bclass); d > done {
			done = d
		}
		if cclass == cache.Hash {
			s.Stat.HashBlockWrites++
		} else {
			s.Stat.DataBlockWrites++
		}
		if i != evIdx {
			s.cacheFor(c).Clean(ba)
		}
	}
	s.putRec(recBuf)
	s.Unit.WriteBuf.Release(idx, done)
	s.noteCheck(done)
	s.Tel.Emit(telemetry.TrackIntegrity, telemetry.KindWriteBack, now, done, c, 0)
	return done
}

// unprotectedRead services a block outside the protected region: plain
// DRAM fill, no verification (the ReadWithoutChecking path of §5.7.1).
// Dirty victims — which may themselves be protected — are routed through
// the owning engine's write-back.
func unprotectedRead(s *System, now uint64, addr uint64, evict evictFunc) uint64 {
	bs := s.BlockSize()
	ba := s.L2.BlockAddr(addr)
	var data []byte
	if s.Functional {
		if len(s.blkScratch) != bs {
			s.blkScratch = make([]byte, bs)
		}
		data = s.blkScratch
		s.Mem.Read(ba, data)
	}
	s.Stat.DemandBlockReads++
	critical, _ := s.DRAM.Read(now, bs, bus.Data)
	// Fill copies data before the eviction can re-enter and reuse it.
	if ev := s.L2.Fill(ba, cache.Data, data); ev.Valid && ev.Dirty {
		evictAndRelease(s.L2, critical, ev, evict)
	}
	return critical
}

// unprotectedEvict writes back a block outside the protected region.
func unprotectedEvict(s *System, now uint64, line cache.Line, data []byte) uint64 {
	s.Stat.Evictions++
	s.Stat.DataBlockWrites++
	if s.Functional {
		s.Mem.Write(line.Addr, data)
	}
	return s.DRAM.Write(now, s.BlockSize(), bus.Data)
}
