package integrity

import (
	"math/rand"
	"testing"
)

func TestBufferPoolImmediateWhenFree(t *testing.T) {
	p := NewBufferPool(2)
	_, start := p.Acquire(100)
	if start != 100 {
		t.Errorf("start %d, want 100", start)
	}
	if p.Waits() != 0 {
		t.Error("unexpected wait")
	}
}

func TestBufferPoolDelaysWhenFull(t *testing.T) {
	p := NewBufferPool(2)
	e0, _ := p.Acquire(0)
	e1, _ := p.Acquire(0)
	p.Release(e0, 500)
	p.Release(e1, 300)
	_, start := p.Acquire(10)
	if start != 300 {
		t.Errorf("third acquisition starts at %d, want 300 (earliest release)", start)
	}
	if p.Waits() != 1 {
		t.Errorf("Waits = %d, want 1", p.Waits())
	}
}

func TestBufferPoolReleaseMonotonic(t *testing.T) {
	p := NewBufferPool(1)
	e, _ := p.Acquire(0)
	p.Release(e, 100)
	p.Release(e, 50) // must not rewind
	_, start := p.Acquire(0)
	if start != 100 {
		t.Errorf("start %d, want 100", start)
	}
}

// TestBufferPoolMatchesReferenceScan drives pools of one to six entries
// through random schedules of acquisitions and releases — small clocks,
// so entries tie often — and holds each acquisition to a reference: the
// lowest-numbered entry free earliest, starting at now or when it frees,
// a wait counted when that is later than now.
func TestBufferPoolMatchesReferenceScan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for n := 1; n <= 6; n++ {
		p := NewBufferPool(n)
		ref := make([]uint64, n)
		var waits uint64
		for step := 0; step < 20000; step++ {
			now := uint64(rng.Intn(64))
			if rng.Intn(3) == 0 {
				e, at := rng.Intn(n), uint64(rng.Intn(96))
				p.Release(e, at)
				ref[e] = max(ref[e], at)
				continue
			}
			best := 0
			for i := range ref {
				if ref[i] < ref[best] {
					best = i
				}
			}
			start := max(now, ref[best])
			if ref[best] > now {
				waits++
			}
			ref[best] = start + 1
			if e, s := p.Acquire(now); e != best || s != start {
				t.Fatalf("%d entries, step %d: Acquire(%d) = entry %d at %d, the reference scan gives %d at %d", n, step, now, e, s, best, start)
			}
		}
		if p.Waits() != waits {
			t.Fatalf("%d entries: %d waits, the reference counts %d", n, p.Waits(), waits)
		}
	}
}

func TestBufferPoolSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBufferPool(0) did not panic")
		}
	}()
	NewBufferPool(0)
}

func TestHashUnitLatency(t *testing.T) {
	u := NewHashUnit(80, 3.2, 16, 16)
	if done := u.Hash(1000, 64); done != 1080 {
		t.Errorf("done %d, want 1080", done)
	}
	if u.Ops() != 1 || u.BytesHashed() != 64 {
		t.Errorf("ops %d bytes %d", u.Ops(), u.BytesHashed())
	}
}

func TestHashUnitThroughputGates(t *testing.T) {
	u := NewHashUnit(80, 3.2, 16, 16)
	// 64 bytes at 3.2 B/cycle occupies the pipe for 20 cycles.
	d1 := u.Hash(0, 64)
	d2 := u.Hash(0, 64)
	d3 := u.Hash(0, 64)
	if d1 != 80 || d2 != 100 || d3 != 120 {
		t.Errorf("pipelined completions %d,%d,%d want 80,100,120", d1, d2, d3)
	}
}

func TestHashUnitLongChunkLatency(t *testing.T) {
	// Occupancy above latency dominates the completion time.
	u := NewHashUnit(10, 1.0, 16, 16)
	if done := u.Hash(0, 64); done != 64 {
		t.Errorf("done %d, want 64 (occupancy-dominated)", done)
	}
}

func TestHashUnitIdleRestart(t *testing.T) {
	u := NewHashUnit(80, 3.2, 16, 16)
	u.Hash(0, 64)
	if done := u.Hash(10_000, 64); done != 10_080 {
		t.Errorf("done %d, want 10080", done)
	}
}

func TestHashUnitResetCounters(t *testing.T) {
	u := NewHashUnit(80, 3.2, 16, 16)
	u.Hash(0, 64)
	u.ResetCounters()
	if u.Ops() != 0 || u.BytesHashed() != 0 {
		t.Error("counters not reset")
	}
	// Pipe schedule must survive the reset.
	if done := u.Hash(0, 64); done != 100 {
		t.Errorf("done %d, want 100 (pipe state preserved)", done)
	}
}

func TestHashUnitBadThroughputPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero throughput did not panic")
		}
	}()
	NewHashUnit(80, 0, 16, 16)
}
