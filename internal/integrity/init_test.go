package integrity

import (
	"bytes"
	"testing"
)

// TestInitializeByTouch runs the full §5.7.2 boot procedure for the hash
// engines and checks the resulting tree authenticates current memory.
func TestInitializeByTouch(t *testing.T) {
	for _, scheme := range []string{"c", "m", "naive"} {
		t.Run(scheme, func(t *testing.T) {
			cfg := defaultRig(scheme)
			if scheme == "m" {
				cfg.chunkBlocks = 2
			}
			cfg.protected = 16 << 10 // keep touching cheap
			r := newRig(t, cfg)

			// Wreck the stored tree so only the procedure can rebuild it.
			for c := uint64(0); c < r.sys.Layout.InteriorChunks; c++ {
				r.adv.Corrupt(r.sys.Layout.ChunkAddr(c), 0xFF)
			}
			r.sys.Root = nil

			done, err := InitializeByTouch(r.engine, 0)
			if err != nil {
				t.Fatal(err)
			}
			if done == 0 {
				t.Error("initialization consumed no cycles")
			}
			if !r.sys.CheckReads {
				t.Error("exceptions not re-armed after initialization")
			}
			r.evictAll()
			if err := r.verifyMemoryTree(); err != nil {
				t.Fatalf("tree not rebuilt correctly: %v", err)
			}
			// A normal read must verify cleanly now.
			r.sys.ResetStats()
			r.read(r.dataBlocks()[1])
			if r.sys.Stat.Violations != 0 {
				t.Fatalf("post-init read raised: %v", r.sys.First)
			}
		})
	}
}

// TestInitializeByTouchRejectsIncremental pins the paper's footnote: the i
// scheme cannot use the flush trick.
func TestInitializeByTouchRejectsIncremental(t *testing.T) {
	r := newRig(t, defaultRig("i"))
	if _, err := InitializeByTouch(r.engine, 0); err == nil {
		t.Fatal("touch initialization accepted for the i scheme")
	}
}

// TestInitializeByTouchNeedsFunctional checks the guard for timing-only
// systems.
func TestInitializeByTouchNeedsFunctional(t *testing.T) {
	r := newRig(t, defaultRig("c"))
	r.sys.Functional = false
	if _, err := InitializeByTouch(r.engine, 0); err == nil {
		t.Fatal("touch initialization accepted for a timing-only system")
	}
}

// TestInitializeTreeMatchesReference compares the engine's bottom-up build
// with the standalone htree implementation for the hash engines.
func TestInitializeTreeMatchesReference(t *testing.T) {
	for _, scheme := range []string{"c", "naive"} {
		r := newRig(t, defaultRig(scheme)) // rig already ran InitializeTree
		if err := r.verifyMemoryTree(); err != nil {
			t.Fatalf("%s: freshly initialized tree invalid: %v", scheme, err)
		}
	}
}

// TestFlushIsIdempotent flushes twice; the second flush must be a no-op.
func TestFlushIsIdempotent(t *testing.T) {
	for _, scheme := range protectedSchemes {
		r := newRig(t, defaultRig(scheme))
		r.randomWorkload(500)
		r.flush()
		writes := r.sys.Stat.DataBlockWrites + r.sys.Stat.HashBlockWrites
		r.flush()
		if w := r.sys.Stat.DataBlockWrites + r.sys.Stat.HashBlockWrites; w != writes {
			t.Errorf("%s: second flush wrote %d more blocks", scheme, w-writes)
		}
	}
}

// TestCheckpointCadenceKeepsTreeConsistent drives the serving path's
// checkpoint cadence: rounds of random stores, each ended by a flush (the
// §5.7.2 step of a checkpoint) and a check that the stored tree covers
// memory and that every block reads back what was stored. The flush
// invalidates each dirty line it writes back and hands its buffer back, so
// the next round's refills land in the buffers it just released — poisoned,
// when TestSuitesUnderPoison runs it.
func TestCheckpointCadenceKeepsTreeConsistent(t *testing.T) {
	for _, scheme := range []string{"c", "m", "i"} {
		t.Run(scheme, func(t *testing.T) {
			r := newRig(t, defaultRig(scheme))
			blocks := r.dataBlocks()
			data := make([]byte, r.sys.BlockSize())
			for round := 0; round < 12; round++ {
				for i := 0; i < 200; i++ {
					for j := range data {
						data[j] = byte(r.rng.Uint64())
					}
					r.write(blocks[r.rng.Intn(len(blocks))], data)
				}
				r.flush()
				if err := r.verifyMemoryTree(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				for _, ba := range blocks {
					if !bytes.Equal(r.read(ba), r.shadow[ba]) {
						t.Fatalf("round %d: block %#x reads back wrong after the flush", round, ba)
					}
				}
			}
			if v := r.sys.Stat.Violations; v != 0 {
				t.Fatalf("%d violations on honest traffic: %v", v, r.sys.First)
			}
		})
	}
}

// TestFlushActsAsBarrier mirrors §5.8: after a flush, everything the
// program wrote is authenticated in memory, so a signature computed over
// it would be safe to release.
func TestFlushActsAsBarrier(t *testing.T) {
	r := newRig(t, defaultRig("c"))
	payload := bytes.Repeat([]byte{0xC4}, r.sys.BlockSize())
	r.write(r.dataBlocks()[9], payload)
	r.flush()
	got := make([]byte, r.sys.BlockSize())
	r.sys.Mem.Read(r.dataBlocks()[9], got)
	if !bytes.Equal(got, payload) {
		t.Fatal("flush did not push the write to memory")
	}
	if err := r.verifyMemoryTree(); err != nil {
		t.Fatal(err)
	}
}
