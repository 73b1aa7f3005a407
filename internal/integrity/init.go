package integrity

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"

	"memverify/internal/cache"
)

// TreeWalker is implemented by every protected engine: the bottom-up pass
// over external memory that §5.7.2's tree computation describes.
type TreeWalker interface {
	// InitializeTree computes all stored records from current memory
	// contents and installs the root, entering secure mode instantly. It
	// is the fast functional equivalent of the §5.7.2 boot procedure for
	// simulations that skip initialization (the paper likewise ignores
	// initialization overhead in its steady-state measurements).
	InitializeTree()
}

// initializeTree stores record's output for every chunk in its parent's
// slot, and chunk 0's in the root register. It visits chunks from the
// last down to chunk 0, so each chunk comes after all of its children,
// reading s.Mem directly: no cache, bus, DRAM or hash-unit model is
// touched and no cycle is charged.
func (s *System) initializeTree(record func(c uint64, img []byte) []byte) {
	img := s.getImg()
	defer s.putImg(img)
	for c := s.Layout.TotalChunks; c > 0; {
		c--
		s.Mem.Read(s.Layout.ChunkAddr(c), img)
		rec := record(c, img)
		if addr, ok := s.Layout.HashAddr(c); ok {
			s.Mem.Write(addr, rec)
		} else {
			s.Root = append(s.Root[:0], rec...)
		}
	}
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
