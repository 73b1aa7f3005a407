package integrity

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"

	"memverify/internal/cache"
	"memverify/internal/mem"
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

// checkFunc is a read check: whether img, chunk c's image, matches the
// record stored for it.
type checkFunc func(c uint64, img, stored []byte) bool

// walkTree visits chunks from below chunk from down to chunk 0, so each
// chunk comes after all of its children, handing visit the chunk's image
// as external memory holds it. The walk stops when visit returns false.
// It reads s.Mem directly: no cache, bus, DRAM or hash-unit model is
// touched and no cycle is charged.
func (s *System) walkTree(from uint64, visit func(c uint64, img []byte) bool) {
	img := s.getImg()
	defer s.putImg(img)
	for c := from; c > 0; {
		c--
		s.Mem.Read(s.Layout.ChunkAddr(c), img)
		if !visit(c, img) {
			return
		}
	}
}

// initializeTree stores record's output for every chunk in its parent's
// slot, and chunk 0's in the root register.
func (s *System) initializeTree(record func(c uint64, img []byte) []byte) {
	s.walkTree(s.Layout.TotalChunks, func(c uint64, img []byte) bool {
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
// register: every chunk's image, read from memory, is checked against the
// record its parent's image stores (the root register for chunk 0) by a
// check newCheck returns. Each stored byte is covered — data, the records
// of every interior chunk and their unused slots — because every chunk is
// checked whole. A mismatch is a violation exactly as on a demand read:
// it goes through System.violation, so the record and halt policies see it.
//
// The verdict is the serial walk's, from the last chunk down to chunk 0:
// it stops at the first violation it meets — the highest-numbered chunk
// that fails — and returns it. Each chunk is checked only against the
// record its parent stores, so on the machine's own memory the checks run
// on every core (lastFailure), and the walk starts at the failure they
// report, or is not needed at all. An interposed adversary keeps the
// walk whole: its reads have side effects, and they run in walk order.
//
// The check reads no cached line, so external memory must hold the
// machine's whole state — dirty lines flushed — or a clean image fails
// against the root that covers them. It charges nothing to any timing
// model or engine counter. A non-functional system has no records to
// compare, so it returns nil at once.
func (s *System) checkTree(scheme string, newCheck func() checkFunc) error {
	if !s.Functional {
		return nil
	}
	from := s.Layout.TotalChunks
	if sp, ok := s.Mem.(*mem.Sparse); ok {
		c, failed := s.lastFailure(sp, newCheck)
		if !failed {
			return nil
		}
		from = c + 1
	}
	var found error
	check := newCheck()
	// A chunk's siblings are consecutive chunks, so the walk meets them
	// one after another: their parent's image is read once for all.
	parentImg := s.getImg()
	defer s.putImg(parentImg)
	parent := ^uint64(0) // none read yet
	s.walkTree(from, func(c uint64, img []byte) bool {
		want := s.Root
		if p, _, isRoot := s.Layout.Parent(c); !isRoot {
			if p != parent {
				s.Mem.Read(s.Layout.ChunkAddr(p), parentImg)
				parent = p
			}
			want = s.slotBytes(parentImg, c)
		}
		if check(c, img, want) {
			return true
		}
		found = s.violation(c, scheme, "stored record does not match memory image")
		return false
	})
	return found
}

// lastFailure runs checkTree's comparison over sp, the machine's own
// memory, on runtime.GOMAXPROCS(0) goroutines, and returns the
// highest-numbered chunk that fails it, or false when none does. Worker w
// takes the w-th of as many equal runs of consecutive chunks, walks it
// from the top and stops at its first failure; the highest run's failure
// is the answer. Each worker owns its check, made by newCheck, and its
// image and record buffers; a chunk and its record are read in place
// (Sparse.View) where one page holds them. Nothing is recorded and no
// counter moves: the caller reports the failure.
func (s *System) lastFailure(sp *mem.Sparse, newCheck func() checkFunc) (uint64, bool) {
	n := s.Layout.TotalChunks
	workers := min(uint64(runtime.GOMAXPROCS(0)), n)
	fails := make([]uint64, workers) // failing chunk + 1; 0 for none
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fails[w] = s.scanChunks(sp, newCheck(), n*w/workers, n*(w+1)/workers)
		}()
	}
	wg.Wait()
	for w := workers; w > 0; w-- {
		if f := fails[w-1]; f != 0 {
			return f - 1, true
		}
	}
	return 0, false
}

// scanChunks checks chunks hi-1 down to lo of sp with check and returns
// the first that fails, plus one, or 0 when all pass.
func (s *System) scanChunks(sp *mem.Sparse, check checkFunc, lo, hi uint64) uint64 {
	l := s.Layout
	img, rec := make([]byte, l.ChunkSize), make([]byte, l.HashSize)
	for c := hi; c > lo; {
		c--
		want := s.Root
		if addr, ok := l.HashAddr(c); ok {
			want = viewOrRead(sp, addr, rec)
		}
		if !check(c, viewOrRead(sp, l.ChunkAddr(c), img), want) {
			return c + 1
		}
	}
	return 0
}

// viewOrRead returns the len(buf) bytes at addr of sp: lent in place where
// one page holds them, read into buf otherwise.
func viewOrRead(sp *mem.Sparse, addr uint64, buf []byte) []byte {
	if b, ok := sp.View(addr, len(buf)); ok {
		return b
	}
	sp.Read(addr, buf)
	return buf
}

// DeriveTree writes into img, a whole memory image (Layout.Size() bytes)
// whose data chunks are set, every stored record of the naive, c and m
// schemes — each chunk's hash (hashRecord) in its parent's slot, zeros in
// the slots no chunk owns — and returns chunk 0's record, the root. It is
// initializeTree's result computed in img instead of memory, and the
// reason those schemes persist only their data: the interior is a
// function of it.
//
// The tree is built a depth level at a time, deepest first. A level is a
// run of consecutive chunks, and chunk c's record sits at byte
// (c−1)·HashSize, so the level's records are one run of bytes in the
// level above: each of runtime.GOMAXPROCS(0) goroutines hashes its share
// of the level's chunks and writes its share of those bytes, which no
// other reads or writes. It touches nothing but img: no memory, cache,
// timing model or counter.
func (s *System) DeriveTree(img []byte) []byte {
	l := s.Layout
	cs, hs := uint64(l.ChunkSize), uint64(l.HashSize)
	clear(img[(l.TotalChunks-1)*hs : l.InteriorChunks*cs])
	var levels [][2]uint64 // [lo, hi) of each depth, root first
	for lo, hi := uint64(0), uint64(1); lo < l.TotalChunks; lo, hi = hi, hi*uint64(l.Arity)+1 {
		levels = append(levels, [2]uint64{lo, min(hi, l.TotalChunks)})
	}
	hashRun := func(lo, hi uint64) {
		var digest []byte
		for c := lo; c < hi; c++ {
			digest = s.Alg.AppendSum(digest[:0], img[c*cs:(c+1)*cs])
			copy(img[(c-1)*hs:c*hs], digest)
		}
	}
	for d := len(levels) - 1; d > 0; d-- {
		lo, hi := levels[d][0], levels[d][1]
		workers := min(uint64(runtime.GOMAXPROCS(0)), (hi-lo+deriveRun-1)/deriveRun)
		var wg sync.WaitGroup
		for w := uint64(1); w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				hashRun(lo+(hi-lo)*w/workers, lo+(hi-lo)*(w+1)/workers)
			}()
		}
		hashRun(lo, lo+(hi-lo)/workers)
		wg.Wait()
	}
	return s.hashChunk(img[:cs])
}

// deriveRun is the fewest chunks DeriveTree gives a goroutine of its own:
// the levels near the root are hashed where the call runs.
const deriveRun = 1024

// CheckRoot is chunk 0's read check for a root computed outside memory —
// DeriveTree's: a root that differs from the root register is a
// violation at chunk 0, recorded as any read check's is and returned.
func (s *System) CheckRoot(root []byte, scheme string) error {
	if bytes.Equal(root, s.Root) {
		return nil
	}
	return s.violation(0, scheme, "root rebuilt from the data does not match the root register")
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
