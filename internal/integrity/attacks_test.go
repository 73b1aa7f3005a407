package integrity

import (
	"bytes"
	"testing"
)

// evictAll forces every cached copy of the protected region out so the
// next read must go to (possibly tampered) memory. The buffers go back to
// the cache, as Machine.EvictProtected hands them back.
func (r *rig) evictAll() {
	r.flush()
	for ba := uint64(0); ba < r.sys.Layout.Size(); ba += uint64(r.sys.BlockSize()) {
		ln := r.sys.L2.Invalidate(ba)
		r.sys.L2.Release(&ln)
	}
}

// TestCorruptionDetected flips a byte of every protected data block in
// turn and expects each engine to flag the next read.
func TestCorruptionDetected(t *testing.T) {
	for _, scheme := range protectedSchemes {
		t.Run(scheme, func(t *testing.T) {
			r := newRig(t, defaultRig(scheme))
			r.randomWorkload(500)
			r.evictAll()
			blocks := r.dataBlocks()
			for i := 0; i < 16; i++ {
				ba := blocks[r.rng.Intn(len(blocks))]
				off := uint64(r.rng.Intn(r.sys.BlockSize()))
				mask := byte(1) << uint(r.rng.Intn(8))
				before := r.sys.Stat.Violations
				r.adv.Corrupt(ba+off, mask)
				r.read(ba)
				if r.sys.Stat.Violations == before {
					t.Fatalf("corruption of byte %#x undetected", ba+off)
				}
				// Undo the flip and drop the poisoned cached copy so the
				// next round starts from a consistent state.
				r.adv.Corrupt(ba+off, mask)
				r.sys.L2.Invalidate(ba)
				r.shadow[ba] = func() []byte {
					b := make([]byte, r.sys.BlockSize())
					r.sys.Mem.Read(ba, b)
					return b
				}()
			}
		})
	}
}

// TestCorruptionOfHashChunkDetected corrupts a stored tree node rather
// than data.
func TestCorruptionOfHashChunkDetected(t *testing.T) {
	for _, scheme := range protectedSchemes {
		t.Run(scheme, func(t *testing.T) {
			r := newRig(t, defaultRig(scheme))
			r.randomWorkload(300)
			r.evictAll()
			// Corrupt the stored record of the block we will read.
			ba := r.dataBlocks()[7]
			slotAddr, _ := r.sys.Layout.HashAddr(r.sys.Layout.ChunkOf(ba))
			r.adv.Corrupt(slotAddr+3, 0x80)
			r.read(ba)
			if r.sys.Stat.Violations == 0 {
				t.Fatal("corrupted stored record undetected")
			}
		})
	}
}

// TestReplayAttackDetected performs the XOM-style replay of §4.4: record a
// block (and its ancestor records), let the program overwrite it, then
// serve the stale bytes back. The tree must catch it because the root
// register cannot be replayed.
func TestReplayAttackDetected(t *testing.T) {
	for _, scheme := range protectedSchemes {
		t.Run(scheme, func(t *testing.T) {
			r := newRig(t, defaultRig(scheme))
			ba := r.dataBlocks()[3]
			r.write(ba, bytes.Repeat([]byte{0x01}, r.sys.BlockSize()))
			r.evictAll() // old value and matching tree are now in memory

			// Adversary snapshots the ENTIRE protected region — data and
			// every tree level. Even a full-memory replay must fail,
			// because the root hash lives on-chip.
			snap := r.adv.Snapshot(0, r.sys.Layout.Size())

			r.write(ba, bytes.Repeat([]byte{0x02}, r.sys.BlockSize()))
			r.evictAll() // new value written back through the tree

			r.adv.Replay(snap)
			r.read(ba)
			if r.sys.Stat.Violations == 0 {
				t.Fatal("full-memory replay undetected (root register should prevent this)")
			}
		})
	}
}

// TestSpliceAttackDetected makes reads of one block return another block's
// (individually valid) contents.
func TestSpliceAttackDetected(t *testing.T) {
	for _, scheme := range protectedSchemes {
		t.Run(scheme, func(t *testing.T) {
			r := newRig(t, defaultRig(scheme))
			r.randomWorkload(300)
			r.evictAll()
			blocks := r.dataBlocks()
			src, dst := blocks[10], blocks[20]
			// Only splice if contents differ, else the attack is vacuous.
			a, b := make([]byte, 64), make([]byte, 64)
			r.sys.Mem.Read(src, a)
			r.sys.Mem.Read(dst, b)
			if bytes.Equal(a, b) {
				r.write(src, bytes.Repeat([]byte{0x5A}, r.sys.BlockSize()))
				r.evictAll()
			}
			r.adv.Splice(dst, src, uint64(r.sys.BlockSize()))
			r.read(dst)
			if r.sys.Stat.Violations == 0 {
				t.Fatal("splice attack undetected")
			}
		})
	}
}

// TestDroppedWriteDetected has memory silently discard the processor's
// write-back; the stored record has moved on, so the next read of the
// stale data must fail.
func TestDroppedWriteDetected(t *testing.T) {
	for _, scheme := range protectedSchemes {
		t.Run(scheme, func(t *testing.T) {
			r := newRig(t, defaultRig(scheme))
			ba := r.dataBlocks()[5]
			r.read(ba)
			r.adv.DropWrites(ba, uint64(r.sys.BlockSize()))
			r.write(ba, bytes.Repeat([]byte{0x77}, r.sys.BlockSize()))
			r.evictAll()
			r.read(ba)
			if r.sys.Stat.Violations == 0 {
				t.Fatal("dropped write-back undetected")
			}
		})
	}
}

// TestUnprotectedRegionIsNotChecked verifies the DMA region semantics of
// §5.7.1: outside the tree, tampering is (by design) not detected.
func TestUnprotectedRegionIsNotChecked(t *testing.T) {
	cfg := defaultRig("c")
	r := newRig(t, cfg)
	unprot := (r.sys.Layout.Size() + 4095) &^ 4095
	r.write(unprot, bytes.Repeat([]byte{0xD3}, r.sys.BlockSize()))
	r.evictAll()
	r.adv.Corrupt(unprot, 0xFF)
	got := r.read(unprot)
	if r.sys.Stat.Violations != 0 {
		t.Fatal("unprotected region raised a violation")
	}
	if got[0] != (0xD3 ^ 0xFF) {
		t.Fatalf("unprotected read returned %#x", got[0])
	}
	if r.sys.Protected(unprot) {
		t.Error("address beyond the layout reported as protected")
	}
	if !r.sys.Protected(0) {
		t.Error("address 0 must be protected")
	}
}

// TestOnViolationCallback checks the observer fires with the details.
func TestOnViolationCallback(t *testing.T) {
	r := newRig(t, defaultRig("c"))
	var seen []*ViolationError
	r.sys.OnViolation = func(v *ViolationError) { seen = append(seen, v) }
	ba := r.dataBlocks()[0]
	r.read(ba)
	r.evictAll()
	r.adv.Corrupt(ba, 0x10)
	r.read(ba)
	if len(seen) == 0 {
		t.Fatal("callback not invoked")
	}
	if seen[0].Scheme != "c" || seen[0].Error() == "" {
		t.Errorf("violation details: %+v", seen[0])
	}
	if r.sys.First == nil {
		t.Error("First violation not recorded")
	}
	r.sys.ResetStats()
	if r.sys.First != nil || r.sys.Stat.Violations != 0 {
		t.Error("ResetStats did not clear violations")
	}
}

// TestCheckReadsOffSuppressesExceptions mirrors initialization step 1:
// with CheckReads off, corrupted data is read without an exception.
func TestCheckReadsOffSuppressesExceptions(t *testing.T) {
	r := newRig(t, defaultRig("c"))
	ba := r.dataBlocks()[2]
	r.read(ba)
	r.evictAll()
	r.adv.Corrupt(ba, 0x01)
	r.sys.CheckReads = false
	r.read(ba)
	if r.sys.Stat.Violations != 0 {
		t.Fatal("exception raised while CheckReads disabled")
	}
}

// TestFullWriteAllocationSkipsCheck pins the §5.3 optimization: a block
// about to be entirely overwritten is allocated without reading or
// checking memory — even a tampered old value raises nothing, and the
// tree ends up covering the new data.
func TestFullWriteAllocationSkipsCheck(t *testing.T) {
	for _, scheme := range []string{"c", "naive"} {
		t.Run(scheme, func(t *testing.T) {
			r := newRig(t, defaultRig(scheme))
			ba := r.dataBlocks()[6]
			r.evictAll()

			readsBefore := r.sys.Stat.DemandBlockReads + r.sys.Stat.ExtraBlockReads
			// Tamper with the block's memory: the old value is garbage,
			// but the program overwrites all of it anyway.
			r.adv.Corrupt(ba, 0xFF)

			r.now = r.engine.AllocateFullWrite(r.now, ba)
			ln := r.sys.L2.Peek(ba)
			if ln == nil || !ln.Dirty {
				t.Fatal("full-write allocation did not install a dirty line")
			}
			fresh := bytes.Repeat([]byte{0x3C}, r.sys.BlockSize())
			copy(r.sys.L2.Bytes(ln), fresh)
			r.shadow[ba] = fresh

			if got := r.sys.Stat.DemandBlockReads + r.sys.Stat.ExtraBlockReads; got != readsBefore {
				t.Errorf("full-write allocation read %d blocks from memory", got-readsBefore)
			}
			if r.sys.Stat.Violations != 0 {
				t.Fatalf("full-write allocation raised: %v", r.sys.First)
			}

			// After flushing, the tree must cover the new contents.
			r.flush()
			if err := r.verifyMemoryTree(); err != nil {
				t.Fatalf("tree inconsistent after full write: %v", err)
			}
			r.evictAll()
			if got := r.read(ba); !bytes.Equal(got, fresh) {
				t.Error("full write lost data")
			}
			if r.sys.Stat.Violations != 0 {
				t.Fatalf("post-write read raised: %v", r.sys.First)
			}
		})
	}
}

// TestFullWriteFallsBackForMultiBlockChunks: with chunks spanning several
// blocks the sibling data must still be fetched and checked, so the
// optimization is declined and tampering is detected.
func TestFullWriteFallsBackForMultiBlockChunks(t *testing.T) {
	for _, scheme := range []string{"m", "i"} {
		t.Run(scheme, func(t *testing.T) {
			r := newRig(t, defaultRig(scheme))
			ba := r.dataBlocks()[6]
			r.evictAll()
			r.adv.Corrupt(ba, 0xFF)
			r.now = r.engine.AllocateFullWrite(r.now, ba)
			if r.sys.Stat.Violations == 0 {
				t.Fatal("multi-block chunk allocation skipped the check")
			}
		})
	}
}

// TestIncrPredictedValueReplayEndToEnd mounts §5.5's first attack against
// the complete i engine: during write-back the adversary answers the
// unchecked old-value read with the (correctly predicted) new value and
// afterwards restores the stale memory. With the 1-bit timestamps folded
// into the MAC terms the next read detects it; with timestamps disabled
// the stale value verifies — exactly the vulnerability the paper analyzes.
func TestIncrPredictedValueReplayEndToEnd(t *testing.T) {
	run := func(stamped bool) (violations uint64) {
		r := newRig(t, defaultRig("i"))
		inc := r.engine.(*Incr)
		if !stamped {
			inc.MAC().Timestamps = false
			inc.InitializeTree() // records must match the unstamped terms
		}
		ba := r.dataBlocks()[4]
		bs := r.sys.BlockSize()

		// Authentic old value O sits in memory.
		oldVal := r.read(ba)
		r.evictAll()

		// The program writes the new value N (dirty in cache).
		_ = oldVal
		newVal := bytes.Repeat([]byte{0xA7}, bs)
		r.write(ba, newVal)

		// The adversary predicts N: before the write-back's unchecked
		// old-value read, memory is made to answer N...
		snap := r.adv.Snapshot(ba, uint64(bs)) // records O for later replay
		blk := make([]byte, bs)
		r.sys.Mem.Read(ba, blk)
		for i := range blk {
			r.adv.Corrupt(ba+uint64(i), blk[i]^newVal[i]) // memory := N
		}

		// Write-back happens; the engine reads "old" = N (the lie) and
		// then writes N (harmlessly, memory already holds it).
		victim := r.sys.L2.Invalidate(ba)
		evictAndRelease(r.sys.L2, r.now, victim, r.engine.Evict)

		// ...and afterwards the stale O is replayed forever.
		r.adv.Replay(snap)

		r.sys.ResetStats()
		r.read(ba)
		return r.sys.Stat.Violations
	}

	if v := run(true); v == 0 {
		t.Error("timestamps enabled: predicted-value replay went undetected")
	}
	if v := run(false); v != 0 {
		t.Error("timestamps disabled: attack should succeed, demonstrating the vulnerability the stamps close")
	}
}
