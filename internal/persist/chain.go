package persist

import (
	"memverify/internal/mem"
)

// This file is the one place that decides whether a shard's next segment
// is a base or a delta. The decision is the shard's own, per epoch, made
// from the count of lines written since its last segment and before any
// byte is copied. Writing a base IS compaction — the image is in memory
// at every checkpoint — so a chain never needs a folding pass.
//
// A shard writes a base
//
//   - when the store holds no committed chain for it: the first
//     checkpoint after Open, and the one after any failed checkpoint (the
//     failed one consumed the machine's record of what had changed);
//   - when the delta would be at least half the image: past that, a delta
//     saves less than the recovery it lengthens;
//   - when the deltas since the last base, this one included, would
//     exceed the image: so a chain on disk is at most two images, recovery
//     reads at most twice what it read before deltas existed, and the
//     bytes written over a chain's life are at most twice the ideal (the
//     lines that changed plus one image per image's worth of them);
//   - at maxChainLinks deltas: so the number of files recovery opens, and
//     the walk the parser makes through back-pointers an adversary may
//     have written, are bounded whatever the write set.
const (
	// maxChainLinks is the most deltas a chain may hold.
	maxChainLinks = 64
	// deltaLineCost is the most one dirty line adds to a delta segment:
	// its bytes, and a run-table entry when it is a run of its own.
	deltaLineCost = mem.LineSize + runSize
)

// chain is what the store knows of one shard's committed chain.
type chain struct {
	// seq is the snapshot sequence number of the machine state the head
	// holds: what the next delta is taken since. 0 means no chain.
	seq uint64
	// epochs are the chain's segments, base first, head last.
	epochs []uint64
	// deltaBytes is the encoded size of the deltas since the base.
	deltaBytes uint64
}

// head returns the epoch of the chain's newest segment.
func (c chain) head() uint64 { return c.epochs[len(c.epochs)-1] }

// next returns what to ask the shard's machine for: the snapshot to take
// the changes since, and the most dirty lines the answer may have and
// still be a delta. since 0 asks for the full image outright. rootLen is
// the shard's root record size, imageSize its image's: here and above,
// the image is the shard's persisted extent (core.StateExtent).
func (c chain) next(imageSize uint64, rootLen int) (since uint64, maxLines int) {
	if c.seq == 0 || len(c.epochs) > maxChainLinks {
		return 0, 0
	}
	// The delta must come to less than half the image and to no more than
	// what the chain's deltas may still add.
	budget := min(imageSize/2, imageSize-min(imageSize, c.deltaBytes)+1)
	fixed := uint64(segFixed + rootLen + deltaFixed + 8)
	if budget <= fixed {
		return 0, 0
	}
	return c.seq, int((budget - fixed - 1) / deltaLineCost)
}

// extend returns the chain after seg was committed as its new head, seq
// being the machine snapshot seg was written from.
func (c chain) extend(seg *segment, seq uint64) chain {
	if !seg.Delta {
		return chain{seq: seq, epochs: []uint64{seg.Epoch}}
	}
	return chain{seq: seq, epochs: append(c.epochs, seg.Epoch), deltaBytes: c.deltaBytes + uint64(seg.size())}
}
