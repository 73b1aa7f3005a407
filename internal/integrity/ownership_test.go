package integrity

import (
	"testing"

	"memverify/internal/cache"
)

// TestWriteAllocateReturnsItsImage is the regression test for a pooled
// chunk image leaked on every write-allocate: writeValue took the image
// readAndCheckChunk hands out ("the caller must release it with putImg"),
// passed it to fillChunk and dropped it, so the pool drained and getImg
// fell back to make once per allocating record update. Between top-level
// operations every image is back on the free list, so its length can grow
// (a deeper nesting than any before makes one more) but never shrink.
func TestWriteAllocateReturnsItsImage(t *testing.T) {
	r := newRig(t, defaultRig("c"))
	allocates := 0
	r.sys.Trace = func(event string, args ...uint64) {
		if event == "writeValue" && args[1] == 1 {
			allocates++
		}
	}
	blocks := r.dataBlocks()
	data := make([]byte, r.sys.BlockSize())
	free := len(r.sys.imgFree)
	for i := 0; i < 4000; i++ {
		ba := blocks[r.rng.Intn(len(blocks))]
		if r.rng.Intn(2) == 0 {
			data[0] = byte(i)
			r.write(ba, data)
		} else {
			r.read(ba)
		}
		if n := len(r.sys.imgFree); n < free {
			t.Fatalf("op %d: image free list shrank %d -> %d: an image was taken and not returned", i, free, n)
		} else {
			free = n
		}
	}
	if allocates < 100 {
		t.Fatalf("only %d write-allocating record updates ran; the test no longer reaches the path", allocates)
	}
	if r.sys.Stat.Violations != 0 {
		t.Fatalf("violations on honest traffic: %v", r.sys.First)
	}
}

// TestSuitesUnderPoison reruns the tamper, consistency and nested
// write-back suites with every released line buffer overwritten with 0xA5
// the moment the cache takes it back. An engine that kept reading a
// victim's bytes after releasing them — a forwarded write-buffer entry, an
// image composed from a stale alias — would hash the poison, and the same
// assertions that pass above would fail on a false violation, a missed
// detection or a root that no longer covers memory.
func TestSuitesUnderPoison(t *testing.T) {
	cache.PoisonReleased = true
	defer func() { cache.PoisonReleased = false }()
	for _, s := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"CorruptionDetected", TestCorruptionDetected},
		{"CorruptionOfHashChunkDetected", TestCorruptionOfHashChunkDetected},
		{"ReplayAttackDetected", TestReplayAttackDetected},
		{"SpliceAttackDetected", TestSpliceAttackDetected},
		{"DroppedWriteDetected", TestDroppedWriteDetected},
		{"FullWriteAllocationSkipsCheck", TestFullWriteAllocationSkipsCheck},
		{"IncrPredictedValueReplayEndToEnd", TestIncrPredictedValueReplayEndToEnd},
		{"WorkloadKeepsTreeConsistent", TestWorkloadKeepsTreeConsistent},
		{"DataSurvivesEvictionRoundTrip", TestDataSurvivesEvictionRoundTrip},
		{"MultiBlockWriteBackCombinesSiblings", TestMultiBlockWriteBackCombinesSiblings},
		{"IncrementalWriteBackLeavesSiblingDirty", TestIncrementalWriteBackLeavesSiblingDirty},
		{"RandomGeometriesStayConsistent", TestRandomGeometriesStayConsistent},
		{"InitializeByTouch", TestInitializeByTouch},
		{"FlushIsIdempotent", TestFlushIsIdempotent},
		{"CheckpointCadenceKeepsTreeConsistent", TestCheckpointCadenceKeepsTreeConsistent},
		{"WriteAllocateReturnsItsImage", TestWriteAllocateReturnsItsImage},
	} {
		t.Run(s.name, s.run)
	}
}
