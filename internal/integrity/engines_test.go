package integrity

import (
	"bytes"
	"testing"
)

// TestWorkloadKeepsTreeConsistent drives each protected engine with a
// random read/write workload, flushes, and verifies every stored record
// covers memory exactly — the end-to-end functional invariant of §5.3.
func TestWorkloadKeepsTreeConsistent(t *testing.T) {
	for _, scheme := range protectedSchemes {
		t.Run(scheme, func(t *testing.T) {
			r := newRig(t, defaultRig(scheme))
			r.randomWorkload(3000)
			if r.sys.Stat.Violations != 0 {
				t.Fatalf("false positives during honest run: %v", r.sys.First)
			}
			r.flush()
			if r.sys.Stat.Violations != 0 {
				t.Fatalf("false positives during flush: %v", r.sys.First)
			}
			if len(r.sys.L2.DirtyLines()) != 0 {
				t.Fatal("dirty lines remain after flush")
			}
			if err := r.verifyMemoryTree(); err != nil {
				t.Fatalf("tree inconsistent with memory after flush: %v", err)
			}
		})
	}
}

// TestDataSurvivesEvictionRoundTrip writes every block, forces total
// eviction by thrashing, and reads everything back.
func TestDataSurvivesEvictionRoundTrip(t *testing.T) {
	for _, scheme := range protectedSchemes {
		t.Run(scheme, func(t *testing.T) {
			r := newRig(t, defaultRig(scheme))
			blocks := r.dataBlocks()
			for i, ba := range blocks {
				data := bytes.Repeat([]byte{byte(i + 1)}, r.sys.BlockSize())
				r.write(ba, data)
			}
			// Re-reading everything forces the earlier writes out through
			// the engine (the L2 is much smaller than the data region).
			for i, ba := range blocks {
				got := r.read(ba)
				if got[0] != byte(i+1) {
					t.Fatalf("block %d corrupted on round trip", i)
				}
			}
			if r.sys.Stat.Violations != 0 {
				t.Fatalf("violations on honest run: %v", r.sys.First)
			}
		})
	}
}

// TestBaseEngineDoesNoIntegrityWork checks that the baseline never hashes
// or touches the tree.
func TestBaseEngineDoesNoIntegrityWork(t *testing.T) {
	r := newRig(t, defaultRig("base"))
	r.randomWorkload(500)
	r.flush()
	if r.sys.Unit.Ops() != 0 {
		t.Errorf("base engine performed %d hash ops", r.sys.Unit.Ops())
	}
	if r.sys.Stat.ExtraBlockReads != 0 {
		t.Errorf("base engine made %d extra reads", r.sys.Stat.ExtraBlockReads)
	}
	if r.engine.Name() != "base" {
		t.Errorf("Name = %q", r.engine.Name())
	}
}

// TestNaiveExtraReadsEqualTreeDepth checks the log_m(N) cost: each cold
// read of an uncached block costs exactly Levels() ancestor reads.
func TestNaiveExtraReadsEqualTreeDepth(t *testing.T) {
	r := newRig(t, defaultRig("naive"))
	levels := uint64(r.sys.Layout.Levels())
	blocks := r.dataBlocks()
	before := r.sys.Stat.ExtraBlockReads
	for _, ba := range blocks[:8] {
		r.read(ba)
	}
	got := r.sys.Stat.ExtraBlockReads - before
	if got != 8*levels {
		t.Errorf("8 cold misses made %d extra reads, want %d (8 x %d levels)", got, 8*levels, levels)
	}
}

// TestCachedSchemeCutsExtraReads verifies the paper's headline: with tree
// nodes cached, sequential misses cost far fewer than Levels() extra reads.
func TestCachedSchemeCutsExtraReads(t *testing.T) {
	r := newRig(t, defaultRig("c"))
	blocks := r.dataBlocks()
	n := len(blocks) / 2 // stay within what the hash working set allows
	before := r.sys.Stat.ExtraBlockReads
	for _, ba := range blocks[:n] {
		r.read(ba)
	}
	extra := r.sys.Stat.ExtraBlockReads - before
	perMiss := float64(extra) / float64(n)
	if perMiss >= 1.0 {
		t.Errorf("cached scheme: %.2f extra reads per miss, want < 1", perMiss)
	}
	levels := float64(r.sys.Layout.Levels())
	if perMiss > levels/2 {
		t.Errorf("caching saved too little: %.2f vs %v levels", perMiss, levels)
	}
}

// TestSchemeNames pins the paper's labels.
func TestSchemeNames(t *testing.T) {
	for _, tc := range []struct{ scheme, want string }{
		{"c", "c"}, {"m", "m"}, {"i", "i"}, {"naive", "naive"},
	} {
		r := newRig(t, defaultRig(tc.scheme))
		if r.engine.Name() != tc.want {
			t.Errorf("scheme %s: Name = %q", tc.scheme, r.engine.Name())
		}
	}
}

// TestMultiBlockWriteBackCombinesSiblings dirties both blocks of a chunk
// and checks that evicting one writes back both (m scheme Write-Back,
// §5.4: "write the blocks that were dirty" and mark them clean).
func TestMultiBlockWriteBackCombinesSiblings(t *testing.T) {
	r := newRig(t, defaultRig("m"))
	l := r.sys.Layout
	base := l.ChunkAddr(l.InteriorChunks) // first data chunk
	bs := uint64(r.sys.BlockSize())

	d0 := bytes.Repeat([]byte{0xAA}, int(bs))
	d1 := bytes.Repeat([]byte{0xBB}, int(bs))
	r.write(base, d0)
	r.write(base+bs, d1)

	// Evict the first block via the engine directly.
	victim := r.sys.L2.Invalidate(base)
	if !victim.Dirty {
		t.Fatal("victim should be dirty")
	}
	r.engine.Evict(r.now, victim)

	// Both blocks must now be in memory, and the sibling marked clean.
	got := make([]byte, bs)
	r.sys.Mem.Read(base, got)
	if !bytes.Equal(got, d0) {
		t.Error("evicted block not written to memory")
	}
	r.sys.Mem.Read(base+bs, got)
	if !bytes.Equal(got, d1) {
		t.Error("dirty sibling not written back with the chunk")
	}
	if ln := r.sys.L2.Peek(base + bs); ln == nil || ln.Dirty {
		t.Error("sibling should remain cached and be marked clean")
	}
	if r.sys.Stat.Violations != 0 {
		t.Fatalf("violations: %v", r.sys.First)
	}
	// The stored hash must cover the new chunk contents.
	r.flush()
	if err := r.verifyMemoryTree(); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalWriteBackLeavesSiblingDirty checks the contrasting i
// behaviour: the constant-work write-back touches only the evicted block.
func TestIncrementalWriteBackLeavesSiblingDirty(t *testing.T) {
	r := newRig(t, defaultRig("i"))
	l := r.sys.Layout
	base := l.ChunkAddr(l.InteriorChunks)
	bs := uint64(r.sys.BlockSize())

	d0 := bytes.Repeat([]byte{0x11}, int(bs))
	d1 := bytes.Repeat([]byte{0x22}, int(bs))
	r.write(base, d0)
	r.write(base+bs, d1)

	victim := r.sys.L2.Invalidate(base)
	r.engine.Evict(r.now, victim)

	got := make([]byte, bs)
	r.sys.Mem.Read(base, got)
	if !bytes.Equal(got, d0) {
		t.Error("evicted block not written")
	}
	r.sys.Mem.Read(base+bs, got)
	if bytes.Equal(got, d1) {
		t.Error("sibling was written back; the i scheme must not touch it")
	}
	if ln := r.sys.L2.Peek(base + bs); ln == nil || !ln.Dirty {
		t.Error("sibling must remain dirty in the cache")
	}
	// Reading the chunk's other block back must still verify (the MAC
	// covers memory state: new block 0, old block 1).
	r.sys.L2.Invalidate(base)
	r.read(base)
	if r.sys.Stat.Violations != 0 {
		t.Fatalf("false positive after incremental write-back: %v", r.sys.First)
	}
}

// TestIncrStampsFlipPerWriteBack evicts the same block repeatedly and
// watches its timestamp bit flip in the stored record.
func TestIncrStampsFlipPerWriteBack(t *testing.T) {
	r := newRig(t, defaultRig("i"))
	inc := r.engine.(*Incr)
	l := r.sys.Layout
	base := l.ChunkAddr(l.InteriorChunks)
	slotAddr, _ := l.HashAddr(l.InteriorChunks)

	readStamp := func() byte {
		rec := make([]byte, 16)
		// The record may be cached (dirty) or in memory; prefer the cache.
		if ln := r.sys.L2.Peek(slotAddr); ln != nil {
			off := slotAddr - ln.Addr
			copy(rec, ln.Data[off:])
		} else {
			r.sys.Mem.Read(slotAddr, rec)
		}
		var tag [16]byte
		copy(tag[:], rec)
		return inc.MAC().Stamps(tag)
	}

	if s := readStamp(); s != 0 {
		t.Fatalf("initial stamps %08b, want 0", s)
	}
	for round := 1; round <= 3; round++ {
		data := bytes.Repeat([]byte{byte(round)}, r.sys.BlockSize())
		r.write(base, data)
		victim := r.sys.L2.Invalidate(base)
		r.engine.Evict(r.now, victim)
		want := byte(round % 2) // bit 0 flips each write-back
		if s := readStamp() & 1; s != want {
			t.Fatalf("round %d: stamp bit %d, want %d", round, s, want)
		}
	}
}

// TestTimingDeterminism re-runs the same workload and expects identical
// final cycle counts and statistics.
func TestTimingDeterminism(t *testing.T) {
	for _, scheme := range protectedSchemes {
		a := newRig(t, defaultRig(scheme))
		b := newRig(t, defaultRig(scheme))
		a.randomWorkload(800)
		b.randomWorkload(800)
		if a.now != b.now {
			t.Errorf("%s: cycle counts differ: %d vs %d", scheme, a.now, b.now)
		}
		if a.sys.Stat != b.sys.Stat {
			t.Errorf("%s: stats differ", scheme)
		}
	}
}

// TestSpeculativeReturnBeatsCheck verifies §5.8's performance property for
// every protected scheme: on a cold miss, Engine.ReadBlock hands the
// processor its data before the background check completes, and the
// crypto barrier (ChecksDone) lies beyond the delivery.
func TestSpeculativeReturnBeatsCheck(t *testing.T) {
	for _, scheme := range protectedSchemes {
		t.Run(scheme, func(t *testing.T) {
			r := newRig(t, defaultRig(scheme))
			ready := r.engine.ReadBlock(1000, r.dataBlocks()[0])
			if done := r.sys.ChecksDone(); ready >= done {
				t.Errorf("data ready at %d, checks done at %d: no speculation window", ready, done)
			}
		})
	}
}

// TestEvictCleanVictimIsFree checks clean evictions do not reach the
// engine's write-back machinery (they are simply dropped).
func TestEvictCleanVictimIsFree(t *testing.T) {
	r := newRig(t, defaultRig("c"))
	blocks := r.dataBlocks()
	// Read (never write) far more blocks than the cache holds.
	for _, ba := range blocks {
		r.read(ba)
	}
	if w := r.sys.Stat.DataBlockWrites; w != 0 {
		t.Errorf("clean workload caused %d data writes", w)
	}
}

// TestPathLengthDistribution measures the paper's thesis directly: cold
// naive misses walk the whole tree (Levels() extra reads every time),
// while the cached scheme's misses usually stop at a resident ancestor.
func TestPathLengthDistribution(t *testing.T) {
	nv := newRig(t, defaultRig("naive"))
	levels := uint64(nv.sys.Layout.Levels())
	for _, ba := range nv.dataBlocks()[:32] {
		nv.read(ba)
	}
	h := nv.sys.PathExtras
	if h == nil || h.Count() != 32 {
		t.Fatalf("naive histogram count %v", h)
	}
	if h.Mean() != float64(levels) {
		t.Errorf("naive mean path %f, want exactly %d", h.Mean(), levels)
	}

	cd := newRig(t, defaultRig("c"))
	blocks := cd.dataBlocks()
	for _, ba := range blocks[:len(blocks)/2] {
		cd.read(ba)
	}
	hc := cd.sys.PathExtras
	if hc.Mean() >= float64(levels)/2 {
		t.Errorf("cached mean path %f not well below %d levels", hc.Mean(), levels)
	}
	// Most cached misses must finish with at most 2 extra reads (a cached
	// ancestor terminates the walk almost immediately).
	short := hc.Bucket(0) + hc.Bucket(1) + hc.Bucket(2)
	if float64(short) < 0.6*float64(hc.Count()) {
		t.Errorf("only %d/%d cached misses had short paths", short, hc.Count())
	}
}
