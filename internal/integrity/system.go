package integrity

import (
	"bytes"
	"fmt"

	"memverify/internal/bus"
	"memverify/internal/cache"
	"memverify/internal/dram"
	"memverify/internal/hashalg"
	"memverify/internal/htree"
	"memverify/internal/mem"
	"memverify/internal/stats"
	"memverify/internal/telemetry"
)

// Stats counts the integrity machinery's activity. Figure 5 is computed
// from these plus the bus byte counters.
type Stats struct {
	// DemandBlockReads counts blocks loaded from memory because the
	// processor asked for them (L2 data misses and write allocations).
	DemandBlockReads uint64
	// ExtraBlockReads counts blocks loaded from memory purely for
	// integrity: tree-node chunks, m-scheme chunk completion reads and
	// i-scheme old-value reads. ExtraWriteBackReads is the subset incurred
	// while servicing write-backs (hash-slot write-allocation, completion
	// reads, old-value reads); the paper's Figure 5a counts only the
	// read-path remainder — its naive bar is exactly the tree depth.
	ExtraBlockReads     uint64
	ExtraWriteBackReads uint64
	// DataBlockWrites and HashBlockWrites count block writes to memory.
	DataBlockWrites uint64
	HashBlockWrites uint64
	// Checks counts verifications performed; Violations counts failures.
	Checks     uint64
	Violations uint64
	// MACUpdates counts constant-work incremental MAC updates (i scheme).
	MACUpdates uint64
	// Evictions counts dirty L2 lines processed by the engine.
	Evictions uint64
}

// ViolationError describes a detected integrity violation — the security
// exception of §5.8.
type ViolationError struct {
	Scheme string
	Chunk  uint64
	Detail string
}

// Error implements error.
func (e *ViolationError) Error() string {
	return fmt.Sprintf("integrity(%s): violation at chunk %d: %s", e.Scheme, e.Chunk, e.Detail)
}

// System bundles the hardware shared by every engine: the L2 cache the
// machinery integrates with, the untrusted memory and its timing models,
// the hash unit, the tree layout and the secure root register.
type System struct {
	L2        *cache.Cache
	Mem       mem.Memory
	DRAM      *dram.DRAM
	Unit      *HashUnit
	Layout    *htree.Layout
	Alg       hashalg.Algorithm
	L2Latency uint64

	// VC, when non-nil, is the dedicated verification cache: interior
	// (hash-tree) chunks are cached here instead of competing with data in
	// the shared L2, reproducing the paper's dedicated-vs-shared ablation.
	// nil keeps every chunk in the L2. Data chunks and unprotected lines
	// always stay in the L2 either way.
	VC *cache.Cache

	// CheckReads arms read verification. The initialization procedure of
	// §5.7.2 runs with it off ("turn on the hashing algorithm for writes
	// but not for reads") and arms it as its final step.
	CheckReads bool

	// Functional selects whether the engines move and verify real bytes.
	// Timing never depends on data values, so large parameter sweeps (the
	// paper protects 4 GB) run with Functional off: no memory contents are
	// materialized, hashes are not actually computed, and all counters,
	// bus traffic and stall behaviour remain identical. Correctness and
	// attack tests run with it on over smaller protected regions.
	Functional bool

	// Root is the secure on-chip register holding the root hash (or the
	// root chunk's MAC record in the i scheme).
	Root []byte

	// OnViolation, if non-nil, observes each violation as it is detected.
	// Detection is always recorded in Stat regardless.
	OnViolation func(*ViolationError)

	// Trace, if non-nil, receives engine events (operation name plus
	// addresses/values) — a debugging aid for the re-entrant write-back
	// machinery.
	Trace func(event string, args ...uint64)

	// Tel, when non-nil, receives cycle-timestamped telemetry spans for
	// tree-ancestor walks and engine write-backs; Probes, when non-nil,
	// feeds the per-access verification-overhead histogram. Both are nil
	// unless the machine was built with telemetry enabled.
	Tel    *telemetry.Trace
	Probes *telemetry.Probes

	Stat  Stats
	First *ViolationError

	// PathExtras distributes the number of extra blocks fetched per
	// demand miss — the direct measurement of the paper's thesis: naive
	// misses observe the full tree depth, cached misses usually observe
	// zero or one because a resident ancestor terminates the walk.
	PathExtras *stats.Histogram

	depth         int
	wbDepth       int
	lastCheckDone uint64

	// inflight tracks lines sitting in the write buffer mid-eviction.
	// Hardware forwards accesses to write-buffer entries; without
	// forwarding, a nested write-back re-allocating the same block would
	// observe the half-committed state (data written, record not yet — or
	// resurrect a stale copy of the line) and either raise a false
	// violation or lose an update. A write-back registers its line on
	// entry and unregisters it on return, so the slice is a stack exactly
	// as deep as write-backs are nested and a linear scan beats hashing.
	inflight []inflightLine

	// Scratch storage reused across engine operations so the per-access
	// hot path allocates nothing in steady state. imgFree and recFree are
	// free lists, not single buffers, because the engines re-enter: a
	// buffer acquired by an outer operation must survive the nested
	// write-backs and verifications that run inside it. memScratch and
	// digestScratch are single buffers, legal only because their contents
	// are never held across a re-entrant call; blkScratch likewise carries
	// an unprotected block from memory to the Fill that copies it.
	// dirtyScratch holds a flush pass's addresses of dirty lines: flushes
	// do not nest.
	imgFree       [][]byte
	recFree       [][]byte
	memScratch    []int
	digestScratch []byte
	blkScratch    []byte
	dirtyScratch  []uint64

	blocksPerChunk int // chunkBlocks' value
}

// inflightLine is one write-buffer entry: the block address and the live
// data of the evicted line (nil in timing-only mode), which the write-back
// running above it owns until it returns.
type inflightLine struct {
	ba   uint64
	data []byte
}

// getImg returns a chunk-image scratch buffer of ChunkSize bytes (zeroed
// is not guaranteed; every user overwrites it fully). Release with putImg.
func (s *System) getImg() []byte {
	if n := len(s.imgFree); n > 0 {
		b := s.imgFree[n-1]
		s.imgFree = s.imgFree[:n-1]
		return b
	}
	return make([]byte, s.Layout.ChunkSize)
}

// putImg returns an image buffer to the free list. nil is ignored so
// timing-only paths can release unconditionally.
func (s *System) putImg(b []byte) {
	if b != nil {
		s.imgFree = append(s.imgFree, b)
	}
}

// getRec returns a record-sized scratch buffer with at least n bytes of
// capacity and zero length. Release with putRec.
func (s *System) getRec(n int) []byte {
	if l := len(s.recFree); l > 0 {
		b := s.recFree[l-1]
		s.recFree = s.recFree[:l-1]
		if cap(b) >= n {
			return b[:0]
		}
	}
	if m := s.Alg.Size(); n < m {
		n = m
	}
	return make([]byte, 0, n)
}

// putRec returns a record buffer to the free list; nil is ignored.
func (s *System) putRec(b []byte) {
	if b != nil {
		s.recFree = append(s.recFree, b)
	}
}

// observePath records the number of integrity block reads one demand
// miss needed.
func (s *System) observePath(extras uint64) {
	if s.PathExtras == nil {
		s.PathExtras = stats.NewHistogram(1, 2, 3, 5, 9, 13)
	}
	s.PathExtras.Observe(extras)
}

// observeVerifyOverhead feeds the per-access verification-overhead probe:
// the cycles between a demand block being ready for speculative use and
// its background check completing.
func (s *System) observeVerifyOverhead(ready, checkDone uint64) {
	if s.Probes == nil || s.Probes.VerifyOverhead == nil {
		return
	}
	var d uint64
	if checkDone > ready {
		d = checkDone - ready
	}
	s.Probes.VerifyOverhead.Observe(d)
}

// noteCheck records the completion cycle of a background check or
// write-back, advancing the §5.8 barrier point.
func (s *System) noteCheck(done uint64) {
	if done > s.lastCheckDone {
		s.lastCheckDone = done
	}
}

// ChecksDone returns the cycle by which every verification and record
// update issued so far has completed — what a cryptographic barrier
// instruction must wait for (§5.8).
func (s *System) ChecksDone() uint64 { return s.lastCheckDone }

// registerInflight marks a block as sitting in the write buffer.
func (s *System) registerInflight(ba uint64, data []byte) {
	s.inflight = append(s.inflight, inflightLine{ba, data})
}

// unregisterInflight removes the write-buffer entry the innermost running
// write-back registered.
func (s *System) unregisterInflight(ba uint64) {
	n := len(s.inflight) - 1
	if s.inflight[n].ba != ba {
		panic("integrity: write-buffer entries released out of order (engine bug)")
	}
	s.inflight[n] = inflightLine{}
	s.inflight = s.inflight[:n]
}

// inflightData returns the live data of an in-flight line and whether one
// exists for ba.
func (s *System) inflightData(ba uint64) ([]byte, bool) {
	for i := len(s.inflight) - 1; i >= 0; i-- {
		if s.inflight[i].ba == ba {
			return s.inflight[i].data, true
		}
	}
	return nil, false
}

// evictFunc is an engine's write-back of a dirty line holding data.
type evictFunc func(now uint64, line cache.Line, data []byte) uint64

// evictAndRelease runs a dirty victim that Fill or Invalidate handed out
// of owner through the write-back evict, with its bytes, and then gives
// its buffer back: the line is this frame's for exactly the write-back's
// duration.
func evictAndRelease(owner *cache.Cache, now uint64, line cache.Line, evict evictFunc) uint64 {
	done := evict(now, line, owner.Bytes(&line))
	owner.Release(&line)
	return done
}

// countExtra attributes n integrity block reads to the read or write-back
// path depending on the current engine context.
func (s *System) countExtra(n uint64) {
	s.Stat.ExtraBlockReads += n
	if s.wbDepth > 0 {
		s.Stat.ExtraWriteBackReads += n
	}
}

// enterWriteBack marks the start of write-back processing for extra-read
// attribution; leaveWriteBack ends it.
func (s *System) enterWriteBack() { s.wbDepth++ }
func (s *System) leaveWriteBack() { s.wbDepth-- }

const maxRecursion = 256

func (s *System) enter() {
	s.depth++
	if s.depth > maxRecursion {
		panic("integrity: verification recursion exceeded bound (engine bug)")
	}
}

func (s *System) leave() { s.depth-- }

// BlockSize returns the L2 line size.
func (s *System) BlockSize() int { return s.L2.Config().BlockSize }

// violation records a detected tamper event and hands it to OnViolation
// at once: the check that caught it ran functionally with the access. It
// returns the recorded event.
func (s *System) violation(chunk uint64, scheme, detail string) *ViolationError {
	v := &ViolationError{Scheme: scheme, Chunk: chunk, Detail: detail}
	s.Stat.Violations++
	if s.First == nil {
		s.First = v
	}
	if s.OnViolation != nil {
		s.OnViolation(v)
	}
	return v
}

// Protected reports whether addr falls inside the hash-protected region.
func (s *System) Protected(addr uint64) bool {
	return s.Layout != nil && addr < s.Layout.Size()
}

// classFor maps a chunk to its cache/bus traffic class.
func (s *System) classFor(c uint64) (cache.Class, bus.Class) {
	if s.Layout.IsInterior(c) {
		return cache.Hash, bus.Hash
	}
	return cache.Data, bus.Data
}

// cacheFor returns the cache holding chunk c's blocks: the dedicated
// verification cache for interior (hash-tree) chunks when one is
// configured, else the shared L2.
func (s *System) cacheFor(c uint64) *cache.Cache {
	if s.VC != nil && s.Layout.IsInterior(c) {
		return s.VC
	}
	return s.L2
}

// cacheForAddr is cacheFor keyed by block address; unprotected addresses
// always live in the L2.
func (s *System) cacheForAddr(addr uint64) *cache.Cache {
	if s.VC != nil && s.Protected(addr) && s.Layout.IsInterior(s.Layout.ChunkOf(addr)) {
		return s.VC
	}
	return s.L2
}

// chunkBlocks returns how many L2 blocks one chunk spans: set by the
// engine constructors that split chunks into blocks (NewCached, NewIncr).
func (s *System) chunkBlocks() int { return s.blocksPerChunk }

// composeImage assembles chunk c's memory-state image: blocks that are
// clean in the L2 are taken from the cache (they match memory and cost no
// bus traffic); every other block — uncached or cached-dirty — is read
// from external memory, because stored hashes cover memory contents, not
// dirty cached copies (the invariant of §5.3). It returns the image and
// the chunk-relative indices of blocks that came from memory.
//
// The image comes from the system's scratch pool — the caller must release
// it with putImg — while memBlocks aliases a single scratch slice that is
// only valid until the next composeImage call, so it must be consumed
// before any re-entrant engine work.
func (s *System) composeImage(c uint64) (img []byte, memBlocks []int) {
	bs := s.BlockSize()
	k := s.chunkBlocks()
	base := s.Layout.ChunkAddr(c)
	if s.Functional {
		img = s.getImg()
	}
	memBlocks = s.memScratch[:0]
	owner := s.cacheFor(c)
	for i := 0; i < k; i++ {
		ba := base + uint64(i*bs)
		if ln := owner.Peek(ba); ln != nil && !ln.Dirty {
			if img != nil {
				copy(img[i*bs:(i+1)*bs], owner.Bytes(ln))
			}
			continue
		}
		if img != nil {
			s.Mem.Read(ba, img[i*bs:(i+1)*bs])
		}
		memBlocks = append(memBlocks, i)
	}
	s.memScratch = memBlocks
	return img, memBlocks
}

// hashChunk computes the stored-form hash of a chunk image in a fresh
// slice the caller owns.
func (s *System) hashChunk(img []byte) []byte {
	return hashalg.Truncate(s.Alg.Sum(img), s.Layout.HashSize)
}

// hashRecord is the c, m and naive stored record: the chunk image's
// hash, in the digest scratch (see hashChunkScratch).
func (s *System) hashRecord(_ uint64, img []byte) []byte { return s.hashChunkScratch(img) }

// hashMatches is the c, m and naive read check: does the chunk image hash
// to the stored record?
func (s *System) hashMatches(_ uint64, img, stored []byte) bool {
	return bytes.Equal(s.hashChunkScratch(img), stored)
}

// hashChunkScratch computes the stored-form hash of a chunk image into the
// system's digest scratch: zero allocations, but the result is only valid
// until the next hashChunkScratch call, so it must not be held across any
// re-entrant engine work. Comparison sites use it directly; sites that
// keep the record across recursion copy it into a pooled buffer first.
func (s *System) hashChunkScratch(img []byte) []byte {
	s.digestScratch = s.Alg.AppendSum(s.digestScratch[:0], img)
	return s.digestScratch[:s.Layout.HashSize]
}

// slotBytes extracts chunk c's hash slot from its parent's image.
func (s *System) slotBytes(parentImg []byte, c uint64) []byte {
	_, slot, _ := s.Layout.Parent(c)
	return parentImg[slot*s.Layout.HashSize : (slot+1)*s.Layout.HashSize]
}

// ResetStats zeroes the integrity counters and forgets recorded
// violations, for post-warm-up measurement.
func (s *System) ResetStats() {
	s.Stat = Stats{}
	s.First = nil
}
