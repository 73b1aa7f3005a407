// Package integrity implements the paper's contribution: the hash-tree
// memory verification engines (naive, cached `c`, multi-block `m` and
// incremental `i`, plus an unprotected base) together with the hash
// checking/generating unit of Figure 2 — a pipelined hash datapath with
// bounded read and write buffers that sits next to the L2 cache.
package integrity

import (
	"memverify/internal/stats"
	"memverify/internal/telemetry"
)

// BufferPool models a small set of hardware buffer entries (the "hash
// read/write buffer" of Table 1). An entry is acquired when a block enters
// the unit and released when its check or hash generation completes; when
// every entry is busy, new requests are delayed until the earliest release.
//
// Reservations are optimistic: Acquire immediately timestamps the entry at
// its start cycle and Release moves it forward, so recursive verification
// chains (a block's check waiting on its ancestor's fetch) serialize
// through a small pool instead of deadlocking — matching hardware that
// drains the chain through the same entries.
type BufferPool struct {
	busyUntil []uint64
	waits     uint64 // acquisitions that had to wait
	acquired  uint64

	// Occ, when non-nil, observes the number of already-busy entries at
	// each acquisition — the buffer-pressure distribution behind Figure 7.
	Occ *stats.Histogram
}

// NewBufferPool returns a pool with n entries. n must be positive.
func NewBufferPool(n int) *BufferPool {
	if n <= 0 {
		panic("integrity: buffer pool must have at least one entry")
	}
	return &BufferPool{busyUntil: make([]uint64, n)}
}

// Acquire reserves the soonest-free entry for a request arriving at cycle
// now. It returns the entry index and the cycle the reservation begins.
func (p *BufferPool) Acquire(now uint64) (entry int, start uint64) {
	best := 0
	if p.Occ != nil {
		busy := uint64(0)
		for _, b := range p.busyUntil {
			if b > now {
				busy++
			}
		}
		p.Occ.Observe(busy)
	}
	least := p.busyUntil[0]
	for i, b := range p.busyUntil {
		if b < least {
			best, least = i, b
		}
	}
	start = now
	if least > start {
		start = least
		p.waits++
	}
	// Claim the entry for at least one cycle so that simultaneous
	// acquisitions spread over distinct entries instead of all electing
	// the same one.
	p.busyUntil[best] = start + 1
	p.acquired++
	return best, start
}

// Release marks the entry busy until cycle at (monotonically — an earlier
// release never rewinds a later reservation).
func (p *BufferPool) Release(entry int, at uint64) {
	if p.busyUntil[entry] < at {
		p.busyUntil[entry] = at
	}
}

// Size returns the number of entries.
func (p *BufferPool) Size() int { return len(p.busyUntil) }

// Waits returns how many acquisitions were delayed by a full pool.
func (p *BufferPool) Waits() uint64 { return p.waits }

// HashUnit is the timing model of the hash checking/generating logic: a
// pipelined datapath with a fixed result latency and a sustained
// throughput, fed through the read (check) and write (generate) buffers.
type HashUnit struct {
	// Latency is cycles from a chunk entering the pipeline to its digest.
	Latency uint64
	// BytesPerCycle is the sustained hashing throughput (3.2 for the
	// paper's 3.2 GB/s unit on a 1 GHz core).
	BytesPerCycle float64
	// ReadBuf holds incoming blocks awaiting check; WriteBuf holds evicted
	// blocks awaiting hash generation.
	ReadBuf, WriteBuf *BufferPool
	// Tel, when non-nil, receives one hash-job event per Hash call.
	Tel *telemetry.Trace

	pipeFree uint64
	ops      uint64
	bytes    uint64
}

// NewHashUnit builds a unit with the given latency, throughput and buffer
// sizes.
func NewHashUnit(latency uint64, bytesPerCycle float64, readEntries, writeEntries int) *HashUnit {
	if bytesPerCycle <= 0 {
		panic("integrity: hash throughput must be positive")
	}
	return &HashUnit{
		Latency:       latency,
		BytesPerCycle: bytesPerCycle,
		ReadBuf:       NewBufferPool(readEntries),
		WriteBuf:      NewBufferPool(writeEntries),
	}
}

// Hash schedules hashing of n bytes that may begin no earlier than cycle
// now and returns the cycle the digest is available. Throughput gating is
// pipelined: a chunk occupies the pipe entry stage for n/BytesPerCycle
// cycles while earlier chunks continue downstream.
func (u *HashUnit) Hash(now uint64, n int) (done uint64) {
	occupancy := uint64(float64(n)/u.BytesPerCycle + 0.999999)
	if occupancy == 0 {
		occupancy = 1
	}
	start := now
	if u.pipeFree > start {
		start = u.pipeFree
	}
	u.pipeFree = start + occupancy
	u.ops++
	u.bytes += uint64(n)
	lat := u.Latency
	if occupancy > lat {
		lat = occupancy
	}
	u.Tel.Emit(telemetry.TrackHash, telemetry.KindHashJob, start, start+lat, uint64(n), 0)
	return start + lat
}

// Ops returns the number of hash computations performed.
func (u *HashUnit) Ops() uint64 { return u.ops }

// BytesHashed returns the total bytes pushed through the unit.
func (u *HashUnit) BytesHashed() uint64 { return u.bytes }

// ResetCounters zeroes the unit's operation counters (pipeline and buffer
// schedule state is preserved) for post-warm-up measurement.
func (u *HashUnit) ResetCounters() {
	u.ops, u.bytes = 0, 0
	u.ReadBuf.waits, u.ReadBuf.acquired = 0, 0
	u.WriteBuf.waits, u.WriteBuf.acquired = 0, 0
}
