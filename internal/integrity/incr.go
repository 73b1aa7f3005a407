package integrity

import (
	"fmt"

	"memverify/internal/bus"
	"memverify/internal/cache"
	"memverify/internal/hashalg"
	"memverify/internal/telemetry"
)

// Incr is the paper's `i` scheme (§5.5): the multi-block organization of
// `m`, but with each stored record an incremental XOR-MAC instead of a
// hash. On write-back only the evicted block is touched: the engine reads
// the parent MAC through the cache, reads the block's old value straight
// from memory *without checking it*, applies a constant-work MAC update,
// and flips the block's 1-bit timestamp — the stamp is what makes the
// unchecked read safe against the two attacks analyzed in §5.5.
type Incr struct {
	Cached
	mac *hashalg.XorMAC

	// blocks and recScratch are the record closure's scratch. Single
	// buffers are enough: both are consumed by the caller before any
	// re-entrant engine work runs.
	blocks     [][]byte
	recScratch [hashalg.MACSize]byte
}

// NewIncr builds the incremental engine. The chunk may span at most
// hashalg.MaxMACBlocks cache blocks (one stamp bit per block), and the
// layout's hash size must be hashalg.MACSize.
func NewIncr(sys *System, key []byte) *Incr {
	if sys.Layout == nil {
		panic("integrity: incremental engine requires a tree layout")
	}
	if sys.Layout.HashSize != hashalg.MACSize {
		panic(fmt.Sprintf("integrity: incremental engine requires %d-byte records, layout has %d",
			hashalg.MACSize, sys.Layout.HashSize))
	}
	k := sys.Layout.ChunkSize / sys.BlockSize()
	if k > hashalg.MaxMACBlocks {
		panic(fmt.Sprintf("integrity: chunk spans %d blocks, max %d", k, hashalg.MaxMACBlocks))
	}
	sys.blocksPerChunk = k
	e := &Incr{mac: hashalg.NewXorMAC(sys.Alg, key)}
	e.sys = sys
	e.scheme = "i"
	var views [][]byte // the read check's block views
	e.verify = func(_ uint64, img, stored []byte) bool {
		var tag [hashalg.MACSize]byte
		copy(tag[:], stored)
		views = splitBlocks(views, img, sys.BlockSize())
		return e.mac.Verify(tag, views)
	}
	e.record = func(_ uint64, img []byte) []byte {
		// Fresh record over a full image. Preserving individual stamps is
		// unnecessary here: a full-chunk write-back re-stamps every block
		// at zero, and the stored record and memory change together. The
		// result lives in engine scratch, per the record contract.
		e.blocks = splitBlocks(e.blocks, img, sys.BlockSize())
		e.recScratch = e.mac.Compute(e.blocks, 0)
		return e.recScratch[:]
	}
	e.evictFn = e.evictIncr
	return e
}

// MAC exposes the underlying XOR-MAC, used by attack-demonstration tests
// to disable timestamps.
func (e *Incr) MAC() *hashalg.XorMAC { return e.mac }

// splitBlocks slices img into views of bs bytes, reusing dst's array.
func splitBlocks(dst [][]byte, img []byte, bs int) [][]byte {
	dst = dst[:0]
	for i := 0; i < len(img); i += bs {
		dst = append(dst, img[i:i+bs])
	}
	return dst
}

// evictIncr is the optimized Write-Back of §5.5.
func (e *Incr) evictIncr(now uint64, line cache.Line, data []byte) uint64 {
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
	blockIdx := int((line.Addr - base) / uint64(bs))

	// The line sits in the write buffer; forward accesses to it.
	if s.Trace != nil {
		s.Trace("evictIncr-start", line.Addr, uint64(c))
	}
	s.registerInflight(line.Addr, data)
	defer s.unregisterInflight(line.Addr)

	idx, start := s.Unit.WriteBuf.Acquire(now)

	// 2 (timing). Read the old value of the cache block from memory
	// directly — no check, and no need to fetch the rest of the chunk.
	_, rdone := s.DRAM.Read(start, bs, bus.Hash)
	s.countExtra(1)
	s.Stat.MACUpdates++

	// 1. Read the parent MAC using ReadAndCheck (through the cache). The
	// fetch can write-allocate and thereby run other write-backs that
	// change the record, so retry until a pass is recursion-free — after
	// which the slot block is resident (or forwarded) and the fetched tag
	// is current. Crucially the incremental update is applied exactly once,
	// to that final tag: re-applying a delta to a tag that already contains
	// it would cancel its own terms.
	tagReady := start
	done := rdone
	var tagBytes []byte
	if c == 0 {
		tagBytes = s.Root
	} else {
		slotAddr, _ := s.Layout.HashAddr(c)
		ba := s.L2.BlockAddr(slotAddr)
		slotCache := s.cacheFor(s.Layout.ChunkOf(slotAddr))
		for attempt := 0; ; attempt++ {
			_, inflight := s.inflightData(ba)
			resident := slotCache.Peek(ba) != nil || inflight
			// readValue hands back a pooled buffer; a stale previous
			// attempt's copy goes back to the pool before refetching.
			s.putRec(tagBytes)
			tagBytes, tagReady = e.readValue(start, slotAddr, hashalg.MACSize)
			if s.Trace != nil {
				flags := uint64(0)
				if !resident {
					flags = 1
				}
				s.Trace("evictIncr-fetch", line.Addr, uint64(c), flags)
			}
			if resident {
				break
			}
			if attempt > 8 {
				panic("integrity: record fetch will not converge (engine bug)")
			}
		}
	}

	// 3. Apply the constant-work update with a flipped stamp bit. The old
	// value lands in a pooled image buffer (chunk-sized; the leading block
	// is what the update consumes).
	var newTag [hashalg.MACSize]byte
	if s.Functional {
		var tag [hashalg.MACSize]byte
		copy(tag[:], tagBytes)
		old := s.getImg()
		s.Mem.Read(line.Addr, old[:bs])
		newTag = e.mac.Update(tag, blockIdx, old[:bs], data)
		s.putImg(old)
	}
	if c != 0 {
		// tagBytes is consumed; the Root alias (c == 0) is never pooled.
		s.putRec(tagBytes)
	}

	// 4a. Store the new record. The slot block is resident or forwarded,
	// so this cannot recurse (nothing ran since the final fetch).
	if c == 0 {
		if s.Functional {
			s.Root = append(s.Root[:0], newTag[:]...)
		}
	} else {
		slotAddr, _ := s.Layout.HashAddr(c)
		var val []byte
		if s.Functional {
			val = newTag[:]
		}
		d, allocated := e.writeValue(tagReady, slotAddr, val)
		if allocated {
			panic("integrity: record store recursed after a resident fetch (engine bug)")
		}
		if d > done {
			done = d
		}
	}

	// Hash-unit work for the update (one block term plus the cipher).
	inputsReady := tagReady
	if rdone > inputsReady {
		inputsReady = rdone
	}
	hdone := s.Unit.Hash(inputsReady, bs)

	// Write the block so data and record change together.
	if s.Trace != nil {
		s.Trace("evictIncr-memwrite", line.Addr, uint64(c))
	}
	if s.Functional {
		s.Mem.Write(line.Addr, data)
	}
	if d := s.DRAM.Write(hdone, bs, bclass); d > done {
		done = d
	}
	if cclass == cache.Hash {
		s.Stat.HashBlockWrites++
	} else {
		s.Stat.DataBlockWrites++
	}
	s.Unit.WriteBuf.Release(idx, done)
	s.noteCheck(done)
	s.Tel.Emit(telemetry.TrackIntegrity, telemetry.KindWriteBack, now, done, c, 1)
	return done
}
