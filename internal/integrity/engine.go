package integrity

import "memverify/internal/cache"

// Engine is the machinery between the L2 cache and external memory. The
// memory hierarchy calls ReadBlock on an L2 miss (read or write-allocate)
// and the engine performs whatever fetching, verification and cache
// filling its scheme requires, returning the cycle at which the requested
// block's critical word is available for speculative use (§5.8: execution
// continues while checks complete in the background; only the shared
// resources — bus, hash pipe, buffers — push back on performance).
//
// Dirty L2 evictions flow back through the engine internally (cache fills
// evict victims), and Flush drains all dirty state, cascading write-backs
// up the tree as in the initialization procedure of §5.7.2.
type Engine interface {
	// Name returns the paper's scheme label: base, naive, c, m or i.
	Name() string
	// ReadBlock services an L2 miss for the block containing addr at cycle
	// now. The block is filled into the L2; the return value is the cycle
	// its data is available to the processor.
	ReadBlock(now uint64, addr uint64) uint64
	// Evict processes a dirty line leaving the L2, holding data (its
	// bytes, resolved by the caller on the cache the line came from; nil
	// in timing-only mode), and returns the cycle the write-back
	// (including any hash updates) completes.
	Evict(now uint64, line cache.Line, data []byte) uint64
	// AllocateFullWrite prepares the block containing addr for a write
	// that overwrites it entirely: the §5.3 optimization — "if write
	// allocation simply marks unwritten words as invalid rather than
	// loading them from memory, then chunks that get entirely overwritten
	// don't have to be read from memory and checked". It installs a dirty
	// line without any memory read or verification and returns the cycle
	// the line is ready (engines whose chunks span several blocks fall
	// back to the ordinary fetch-and-check path, since the rest of the
	// chunk still needs authentic data). The caller must overwrite the
	// whole line before anything reads it.
	AllocateFullWrite(now uint64, addr uint64) uint64
	// Flush writes back every dirty line, cascading tree updates, and
	// returns the completion cycle. It is the §5.7.2 cache flush and the
	// barrier used before cryptographic instructions sign results.
	Flush(now uint64) uint64
	// System exposes the shared hardware for statistics and tests.
	System() *System
}

// Base is a standard processor without memory verification: L2 misses go
// straight to DRAM and dirty evictions are plain writes.
type Base struct {
	sys *System
}

// NewBase returns the unprotected baseline engine. sys.Layout and
// sys.Unit may be nil.
func NewBase(sys *System) *Base { return &Base{sys: sys} }

// Name implements Engine.
func (e *Base) Name() string { return "base" }

// System implements Engine.
func (e *Base) System() *System { return e.sys }

// ReadBlock implements Engine.
func (e *Base) ReadBlock(now uint64, addr uint64) uint64 {
	return unprotectedRead(e.sys, now, addr, e.Evict)
}

// Evict implements Engine.
func (e *Base) Evict(now uint64, line cache.Line, data []byte) uint64 {
	return unprotectedEvict(e.sys, now, line, data)
}

// AllocateFullWrite implements Engine: the base scheme never needs the
// old contents for a full overwrite either.
func (e *Base) AllocateFullWrite(now uint64, addr uint64) uint64 {
	return allocateFullWrite(e.sys, now, addr, e.Evict)
}

// fillRetries bounds re-installs when a victim's write-back walk evicts
// the very line being allocated — possible in a small, low-associativity
// L2 where a chunk's tree path conflicts with the data set. The walk
// leaves the path resident, so the retry converges immediately; running
// out means the geometry cannot hold one line plus its path.
const fillRetries = 4

// allocateFullWrite installs a dirty, about-to-be-overwritten line with no
// memory traffic; shared by every engine whose chunk equals one block.
func allocateFullWrite(s *System, now uint64, addr uint64, evict evictFunc) uint64 {
	ba := s.L2.BlockAddr(addr)
	for try := 0; ; try++ {
		if ev := s.L2.Fill(ba, cache.Data, nil); ev.Valid && ev.Dirty {
			evictAndRelease(s.L2, now, ev, evict)
		}
		if s.L2.Write(ba, cache.Data) != nil {
			return now + s.L2Latency
		}
		if try == fillRetries {
			panic("integrity: full-write allocation failed to cache the block")
		}
	}
}

// Flush implements Engine.
func (e *Base) Flush(now uint64) uint64 {
	done := now
	e.sys.dirtyScratch = e.sys.L2.AppendDirty(e.sys.dirtyScratch[:0])
	for _, addr := range e.sys.dirtyScratch {
		// The line stays resident and keeps its bytes: the plain write
		// reads them where they sit and cannot re-enter the cache.
		cur := e.sys.L2.Peek(addr)
		ln := *cur
		cur.Dirty = false
		if d := e.Evict(done, ln, e.sys.L2.Bytes(cur)); d > done {
			done = d
		}
	}
	return done
}

// flushVia drains dirty lines through ev until every cache is clean —
// the shared L2 and, when configured, the dedicated verification cache,
// whose lines the write-backs dirty with record updates. Shared by the
// protected engines.
func flushVia(s *System, now uint64, ev evictFunc) uint64 {
	done := now
	for pass := 0; ; pass++ {
		dirty := s.L2.AppendDirty(s.dirtyScratch[:0])
		if s.VC != nil {
			dirty = s.VC.AppendDirty(dirty)
		}
		s.dirtyScratch = dirty
		if len(dirty) == 0 {
			return done
		}
		if pass > s.Layout.Levels()+2 {
			panic("integrity: flush failed to converge (engine bug)")
		}
		for _, addr := range dirty {
			// The line may have been cleaned or re-dirtied by an earlier
			// write-back in this pass (m-scheme write-backs clean chunk
			// siblings; hash updates dirty parents). Re-check, then pull
			// the line out so Evict sees the same "in hand" state a
			// replacement victim would have.
			owner := s.cacheForAddr(addr)
			cur := owner.Peek(addr)
			if cur == nil || !cur.Dirty {
				continue
			}
			victim := owner.Invalidate(addr)
			if d := evictAndRelease(owner, done, victim, ev); d > done {
				done = d
			}
		}
	}
}
