// Package cache implements the set-associative caches of the simulated
// memory hierarchy: L1 instruction, L1 data and the unified L2 the hash
// machinery integrates with.
//
// Caches are write-back, write-allocate, with true LRU replacement. Each
// line carries a traffic class (program data vs hash-tree node) so the
// harness can report the program-data miss rate of Figure 4 and the cache
// pollution analysis of §6.4.1. The L2 is data-bearing: lines hold their
// actual bytes, which is what makes cached hash-tree nodes trustworthy
// on-chip roots in the integrity engines.
//
// A data-bearing line's buffer has exactly one owner at every moment: the
// slot while the line is resident; the caller, between a Fill or Invalidate
// that hands a line out holding its buffer and the Release that hands it
// back; the free list otherwise. A Line names its buffer by index and
// Bytes resolves the index on the cache the line came from, so a timing-
// only cache is nothing but its line array. The cache keeps every buffer
// it makes for as long as it exists, carved bufsPerChunk at a time from
// chunks it owns, so Fill makes one only when every buffer made so far is
// resident or out in a write-back: lines plus write-back nesting bound the
// count. A clean victim's buffer is reused where it sits, a dirty victim's
// replacement comes off the free list the previous write-back's Release
// fed, and the buffers a flush releases are the ones its refills take.
package cache

import (
	"fmt"
	"slices"
)

// Class labels the contents of a line.
type Class uint8

const (
	// Data is ordinary program data (or instructions).
	Data Class = iota
	// Hash is a hash-tree node chunk cached by the c/m/i schemes.
	Hash
	numClasses
)

// String returns "data" or "hash".
func (c Class) String() string {
	switch c {
	case Data:
		return "data"
	case Hash:
		return "hash"
	}
	return "unknown"
}

// Config describes a cache's geometry.
type Config struct {
	Name      string // for error messages and stat dumps
	Size      int    // total bytes; must be Ways*BlockSize*Sets
	Ways      int    // associativity
	BlockSize int    // line size in bytes; power of two
	// DataBearing controls whether lines store their bytes. Timing-only
	// caches (the L1s) leave it false; the L2 sets it so the integrity
	// machinery can treat cached chunks as trusted on-chip values.
	DataBearing bool
}

// bufsPerChunk is how many line buffers a data-bearing cache carves from
// one allocation; one word of out bits covers a chunk.
const bufsPerChunk = 64

// PoisonReleased is a testing aid: when set, Release fills every buffer
// with 0xA5 as it takes it back, so code that keeps using a buffer it has
// released reads garbage — a root mismatch in the integrity engines —
// instead of bytes that happen to still be right. Only tests set it.
var PoisonReleased bool

// Line is one cache line: 24 bytes and no pointer, so a cache's line
// array is a single allocation the collector never scans. A data-bearing
// line's bytes are Bytes(&line) on the cache it came from; buf, the
// 1-based index of its buffer there, is 0 in timing-only caches, on clean
// victims and on released lines, so the zero Line has no bytes.
type Line struct {
	Addr  uint64 // block-aligned address
	lru   uint64
	buf   uint32
	Class Class
	Valid bool
	Dirty bool
}

// Stats counts cache events, split by traffic class.
type Stats struct {
	Accesses   [2]uint64 // reads per class
	Misses     [2]uint64
	Writes     [2]uint64 // write accesses per class
	WriteMiss  [2]uint64
	Evictions  [2]uint64
	WriteBacks [2]uint64 // dirty evictions
}

// MissRate returns the read+write miss rate for a class.
func (s *Stats) MissRate(c Class) float64 {
	acc := s.Accesses[c] + s.Writes[c]
	if acc == 0 {
		return 0
	}
	return float64(s.Misses[c]+s.WriteMiss[c]) / float64(acc)
}

// Cache is a set-associative write-back cache.
type Cache struct {
	cfg       Config
	lines     []Line // set i is lines[i*ways : (i+1)*ways]
	ways      int
	shift     uint   // log2(BlockSize)
	blockMask uint64 // BlockSize-1
	mask      uint64 // number of sets - 1
	clock     uint64 // LRU timestamp source
	nsets     int
	Stat      Stats
	filled    int
	// filledClass tracks residency per traffic class so telemetry can
	// report how much of the L2 the hash tree occupies (§6.4.1).
	filledClass [numClasses]int
	// Line buffers, data-bearing caches only. Buffer i (1-based, as a
	// Line's buf) is block (i-1)%bufsPerChunk of chunks[(i-1)/bufsPerChunk];
	// addrs[i-1] is the block it holds (releasedAddr once it is back), bit
	// (i-1)%bufsPerChunk of out[(i-1)/bufsPerChunk] is set while a caller
	// holds it, and free lists the released ones, LIFO.
	chunks [][]byte
	made   int
	addrs  []uint64
	out    []uint64
	free   []uint32
}

// releasedAddr is the address a free buffer holds: no block is at an odd
// address, so a stale copy of a released line reaches no bytes.
const releasedAddr = 1

// New builds a cache. It panics on an inconsistent geometry, which is a
// programming error in the caller's configuration code.
func New(cfg Config) *Cache {
	if cfg.BlockSize <= 0 || cfg.BlockSize&(cfg.BlockSize-1) != 0 {
		panic(fmt.Sprintf("cache %s: block size %d not a positive power of two", cfg.Name, cfg.BlockSize))
	}
	if cfg.Ways <= 0 {
		panic(fmt.Sprintf("cache %s: ways %d", cfg.Name, cfg.Ways))
	}
	if cfg.Size%(cfg.BlockSize*cfg.Ways) != 0 {
		panic(fmt.Sprintf("cache %s: size %d not divisible by ways*block", cfg.Name, cfg.Size))
	}
	nsets := cfg.Size / (cfg.BlockSize * cfg.Ways)
	if nsets == 0 || nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a positive power of two", cfg.Name, nsets))
	}
	// One flat line array: simulation sweeps construct thousands of
	// machines, and their line arrays are most of what a machine costs.
	c := &Cache{cfg: cfg, nsets: nsets, ways: cfg.Ways, lines: make([]Line, nsets*cfg.Ways)}
	for bs := cfg.BlockSize; bs > 1; bs >>= 1 {
		c.shift++
	}
	c.mask = uint64(nsets - 1)
	c.blockMask = uint64(cfg.BlockSize - 1)
	return c
}

// Config returns the cache's geometry.
func (c *Cache) Config() Config { return c.cfg }

// BlockAddr returns addr rounded down to its block boundary.
func (c *Cache) BlockAddr(addr uint64) uint64 { return addr &^ c.blockMask }

// set returns addr's set. The shift is masked so that the compiler emits
// no fix-up for shifts of 64 or more: every lookup starts here.
func (c *Cache) set(addr uint64) []Line {
	i := int((addr>>(c.shift&63))&c.mask) * c.ways
	return c.lines[i : i+c.ways]
}

// Probe returns the line holding addr, updating LRU, or nil on miss.
// It records no statistics; use Read/Write for accounted accesses. It is
// written to stay within the compiler's inlining budget, so the L1 and L2
// lookups of Read and Write make no call.
func (c *Cache) Probe(addr uint64) *Line {
	ba := c.BlockAddr(addr)
	set := c.set(ba)
	for i := range set {
		if ln := &set[i]; ln.Valid && ln.Addr == ba {
			c.clock++
			ln.lru = c.clock
			return ln
		}
	}
	return nil
}

// Peek returns the line holding addr without touching LRU or statistics.
func (c *Cache) Peek(addr uint64) *Line {
	ba := c.BlockAddr(addr)
	set := c.set(ba)
	for i := range set {
		if set[i].Valid && set[i].Addr == ba {
			return &set[i]
		}
	}
	return nil
}

// Read performs an accounted read access and returns the hit line or nil.
func (c *Cache) Read(addr uint64, class Class) *Line {
	c.Stat.Accesses[class]++
	ln := c.Probe(addr)
	if ln == nil {
		c.Stat.Misses[class]++
	}
	return ln
}

// Write performs an accounted write access. On hit the line is marked
// dirty and returned; on miss it returns nil and the caller is expected to
// run the write-allocate path (fill then mark dirty).
func (c *Cache) Write(addr uint64, class Class) *Line {
	c.Stat.Writes[class]++
	ln := c.Probe(addr)
	if ln == nil {
		c.Stat.WriteMiss[class]++
		return nil
	}
	c.reclass(ln, class)
	ln.Dirty = true
	return ln
}

// Rehit accounts n further hits on ln, a line the caller's last access
// hit or filled, in constant time: exactly what n Read calls (n Write
// calls, when write is set) on ln's block would leave behind — n accesses
// counted, the LRU clock advanced n ticks and stamped on the line. The
// block-span paths use it for the bytes of a span that follow the first
// one into the same block; ln must already hold class (and be dirty, for
// writes), as it does after that first access.
func (c *Cache) Rehit(ln *Line, class Class, n uint64, write bool) {
	if n == 0 {
		return
	}
	if write {
		c.Stat.Writes[class] += n
	} else {
		c.Stat.Accesses[class] += n
	}
	c.clock += n
	ln.lru = c.clock
}

// reclass moves a resident line to a new traffic class, keeping the
// per-class residency counters in step so the later eviction decrements
// the class the line actually holds. Leaving the stale class in place
// made ResidentLinesClass drift and could drive filledClass negative.
func (c *Cache) reclass(ln *Line, class Class) {
	if ln.Class == class {
		return
	}
	c.filledClass[ln.Class]--
	c.filledClass[class]++
	ln.Class = class
}

// Fill inserts a block, evicting the set's LRU line if necessary. It
// returns a copy of the evicted line (Valid false if the set had room).
// data is retained only in data-bearing caches, where it is copied; nil
// data leaves the line all-zero.
//
// A dirty victim leaves with its buffer: the caller reads it with Bytes,
// owns it through the write-back and hands it back with Release. A clean
// victim's buffer stays behind for the incoming block, so its returned
// copy has no bytes.
func (c *Cache) Fill(addr uint64, class Class, data []byte) Line {
	ba := c.BlockAddr(addr)
	set := c.set(ba)
	// The resident-refill scan must cover the whole set before a victim is
	// chosen: an Invalidate hole sitting at a lower way than the resident
	// line would otherwise become the victim and the set would hold two
	// lines for the same block.
	for i := range set {
		if set[i].Valid && set[i].Addr == ba {
			// Refill of a resident line: refresh contents in place.
			if set[i].buf != 0 && data != nil {
				copy(c.buffer(set[i].buf), data)
			}
			c.reclass(&set[i], class)
			c.clock++
			set[i].lru = c.clock
			return Line{}
		}
	}
	victim := 0
	for i := range set {
		if !set[i].Valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	evicted := set[victim]
	if evicted.Valid {
		c.Stat.Evictions[evicted.Class]++
		if evicted.Dirty {
			c.Stat.WriteBacks[evicted.Class]++
		}
		c.filledClass[evicted.Class]--
	} else {
		c.filled++
	}
	c.filledClass[class]++
	c.clock++
	nl := Line{Addr: ba, Class: class, Valid: true, lru: c.clock}
	if c.cfg.DataBearing {
		// A clean victim's buffer stays for the incoming block. An empty
		// slot has none and a dirty victim's leaves with the caller: the
		// slot takes one off the free list, or a never-used one (zero
		// since its chunk was made) when every buffer is out.
		zeroed := false
		switch n := len(c.free); {
		case evicted.Valid && !evicted.Dirty:
			nl.buf, evicted.buf = evicted.buf, 0
		case n > 0:
			nl.buf = c.free[n-1]
			c.free = c.free[:n-1]
		default:
			nl.buf, zeroed = c.newBuffer(), true
		}
		if evicted.Dirty {
			c.handOut(evicted.buf)
		}
		c.addrs[nl.buf-1] = ba
		b := c.buffer(nl.buf)
		if n := copy(b, data); !zeroed {
			clear(b[n:])
		}
	}
	set[victim] = nl
	return evicted
}

// newBuffer returns the index of a buffer no line has held yet, carving a
// new chunk when the last is used up. The free list's capacity grows with
// the chunks, so Release never allocates.
func (c *Cache) newBuffer() uint32 {
	if c.made%bufsPerChunk == 0 {
		c.chunks = append(c.chunks, make([]byte, bufsPerChunk*c.cfg.BlockSize))
		c.addrs = append(c.addrs, make([]uint64, bufsPerChunk)...)
		c.out = append(c.out, 0)
		c.free = slices.Grow(c.free, c.made+bufsPerChunk-len(c.free))
	}
	c.made++
	return uint32(c.made)
}

// handOut marks buffer i as held by a caller until its Release.
func (c *Cache) handOut(i uint32) {
	c.out[(i-1)/bufsPerChunk] |= 1 << ((i - 1) % bufsPerChunk)
}

// buffer returns buffer i, capped at one block.
func (c *Cache) buffer(i uint32) []byte {
	off := int((i-1)%bufsPerChunk) * c.cfg.BlockSize
	return c.chunks[(i-1)/bufsPerChunk][off : off+c.cfg.BlockSize : off+c.cfg.BlockSize]
}

// Bytes returns a data-bearing line's bytes: in place for a resident line,
// the buffer a caller holds for a line Fill or Invalidate handed out. A
// line without a buffer (timing-only caches, clean victims, released
// lines) has none. A line whose buffer here holds another block — a line
// of another cache, or a stale copy of a released one — is a caller bug
// and panics rather than reach bytes it does not own.
func (c *Cache) Bytes(ln *Line) []byte {
	i := ln.buf
	if i == 0 {
		return nil
	}
	if int(i) > c.made || c.addrs[i-1] != ln.Addr {
		panic(notHeld{c.cfg.Name, ln.Addr, i})
	}
	return c.buffer(i)
}

// notHeld is Bytes' panic value for a line whose buffer does not hold
// its block. A value, not a formatted message, so that Bytes inlines.
type notHeld struct {
	cache string
	addr  uint64
	buf   uint32
}

func (e notHeld) Error() string {
	return fmt.Sprintf("cache %s: line %#x names buffer %d, which does not hold it", e.cache, e.addr, e.buf)
}

// Release takes back the buffer of a line Fill or Invalidate handed out
// and clears the caller's copy, so it no longer reaches bytes the cache
// will reuse. A line without a buffer (timing-only caches, clean victims,
// an already released line) is a no-op. A buffer the cache did not hand
// out for this line — one it never made, one that is resident or free
// again, one holding another block — is a caller bug and panics: a line
// of another cache, and a second release through a stale copy of a line,
// are caught unless the buffer is out again holding the same block.
func (c *Cache) Release(ln *Line) {
	i := ln.buf
	if i == 0 {
		return
	}
	if int(i) > c.made {
		panic(fmt.Sprintf("cache %s: line %#x released buffer %d, the cache made %d", c.cfg.Name, ln.Addr, i, c.made))
	}
	w, bit := &c.out[(i-1)/bufsPerChunk], uint64(1)<<((i-1)%bufsPerChunk)
	if *w&bit == 0 {
		panic(fmt.Sprintf("cache %s: line %#x released buffer %d, which is not out (released twice?)", c.cfg.Name, ln.Addr, i))
	}
	if c.addrs[i-1] != ln.Addr {
		panic(fmt.Sprintf("cache %s: line %#x released buffer %d, which holds %#x", c.cfg.Name, ln.Addr, i, c.addrs[i-1]))
	}
	*w &^= bit
	ln.buf = 0
	c.addrs[i-1] = releasedAddr
	if PoisonReleased {
		b := c.buffer(i)
		for j := range b {
			b[j] = 0xA5
		}
	}
	c.free = append(c.free, i)
}

// Invalidate drops the line holding addr, returning a copy of it (Valid
// false if absent). The caller owns the line's buffer, dirty or not, and
// hands it back with Release once done with it.
func (c *Cache) Invalidate(addr uint64) Line {
	ba := c.BlockAddr(addr)
	set := c.set(ba)
	for i := range set {
		if set[i].Valid && set[i].Addr == ba {
			ln := set[i]
			set[i] = Line{}
			if ln.buf != 0 {
				c.handOut(ln.buf)
			}
			c.filled--
			c.filledClass[ln.Class]--
			return ln
		}
	}
	return Line{}
}

// AppendDirty appends the address of every dirty resident line to dst,
// in set and way order, and returns the extended slice. Used by the
// initialization procedure's cache flush (§5.7.2), which passes the same
// scratch every time.
func (c *Cache) AppendDirty(dst []uint64) []uint64 {
	for i := range c.lines {
		if c.lines[i].Valid && c.lines[i].Dirty {
			dst = append(dst, c.lines[i].Addr)
		}
	}
	return dst
}

// Clean marks the line holding addr as clean, if present.
func (c *Cache) Clean(addr uint64) {
	if ln := c.Peek(addr); ln != nil {
		ln.Dirty = false
	}
}

// ResidentLines returns the number of valid lines.
func (c *Cache) ResidentLines() int { return c.filled }

// ResidentLinesClass returns the number of valid lines holding the given
// traffic class.
func (c *Cache) ResidentLinesClass(class Class) int { return c.filledClass[class] }

// Sets returns the number of sets (exported for tests and doc output).
func (c *Cache) Sets() int { return c.nsets }

// ResetStats zeroes the event counters (contents are untouched) for
// post-warm-up measurement.
func (c *Cache) ResetStats() { c.Stat = Stats{} }
