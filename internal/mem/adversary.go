package mem

// Adversary wraps a Memory and models a physical attacker sitting on the
// memory bus (§3). The attacker can observe everything and substitute
// arbitrary values; the mutators below cover the attack classes the
// paper analyzes:
//
//   - Corrupt: flip stored bits directly (simple tampering).
//   - Snapshot/Replay: return stale data previously stored at the same
//     address during the same execution (the XOM replay attack of §4.4).
//   - Splice: answer reads of one address with data stored at another
//     (address permutation attacks).
//   - DropWrites: silently discard the processor's writes to a region
//     ("only the first write to an address is ever actually performed").
//   - CorruptBurst: flip stored bits across a multi-byte run in one shot.
//   - Schedule: defer any of the above until a chosen number of bus
//     transactions from now, for attacks timed against live traffic.
//
// All mutations affect what readers observe; the integrity machinery is
// expected to detect every one on protected regions.
type Adversary struct {
	inner Memory

	replays   []replayRegion
	splices   []spliceRegion
	drops     []region
	schedules []schedule

	// OnRead and OnWrite, if non-nil, observe every memory transaction the
	// processor/engine side issues, before any mutation is applied. The
	// adversary's own mutators bypass them (they act on the underlying
	// storage directly), so observers see exactly the bus traffic a probe
	// on the memory interface would. Chaos campaigns use them to tell
	// whether tampered bytes were ever actually consumed or overwritten.
	OnRead  func(addr uint64, n int)
	OnWrite func(addr uint64, n int)

	// Reads and Writes count the traffic the adversary has observed, a
	// convenience for tests asserting that attacks happened where expected.
	Reads, Writes uint64

	events uint64 // read+write transactions observed, for Schedule
}

type region struct{ addr, size uint64 }

func (r region) contains(a uint64) bool { return a >= r.addr && a < r.addr+r.size }

type replayRegion struct {
	region
	data   []byte
	active bool
}

type spliceRegion struct {
	region
	src uint64
}

// schedule is a deferred attack: fire f once after `after` more memory
// transactions (reads or writes) have been observed.
type schedule struct {
	at uint64
	f  func()
}

// NewAdversary wraps inner. With no mutations configured it is a
// transparent pass-through.
func NewAdversary(inner Memory) *Adversary {
	return &Adversary{inner: inner}
}

// Corrupt XORs the byte at addr with mask, directly in the underlying
// storage (bypassing any integrity machinery above).
func (a *Adversary) Corrupt(addr uint64, mask byte) {
	var b [1]byte
	a.inner.Read(addr, b[:])
	b[0] ^= mask
	a.inner.Write(addr, b[:])
}

// Snapshot records size bytes at addr and returns a replay handle. The
// snapshot is inert until Replay is called on the handle.
func (a *Adversary) Snapshot(addr, size uint64) int {
	data := make([]byte, size)
	a.inner.Read(addr, data)
	a.replays = append(a.replays, replayRegion{region: region{addr, size}, data: data})
	return len(a.replays) - 1
}

// Replay activates a snapshot: subsequent reads inside its region return
// the stale recorded bytes instead of current memory.
func (a *Adversary) Replay(handle int) { a.replays[handle].active = true }

// StopReplay deactivates a snapshot.
func (a *Adversary) StopReplay(handle int) { a.replays[handle].active = false }

// Splice makes reads of [dst, dst+size) return the bytes currently stored
// at the corresponding offset from src.
func (a *Adversary) Splice(dst, src, size uint64) {
	a.splices = append(a.splices, spliceRegion{region: region{dst, size}, src: src})
}

// DropWrites makes the memory silently discard writes to [addr, addr+size).
func (a *Adversary) DropWrites(addr, size uint64) {
	a.drops = append(a.drops, region{addr, size})
}

// CorruptBurst XORs a run of stored bytes starting at addr with mask,
// directly in the underlying storage. Zero mask bytes leave the
// corresponding stored byte alone, so sparse multi-bit patterns within the
// burst are expressible.
func (a *Adversary) CorruptBurst(addr uint64, mask []byte) {
	buf := make([]byte, len(mask))
	a.inner.Read(addr, buf)
	for i, m := range mask {
		buf[i] ^= m
	}
	a.inner.Write(addr, buf)
}

// Schedule defers f until `after` more memory transactions (reads or
// writes, counted together) have been observed, then fires it exactly once
// — before the triggering transaction's data is served, so f can tamper
// with the very bytes that transaction returns. after == 0 fires on the
// next transaction.
func (a *Adversary) Schedule(after uint64, f func()) {
	a.schedules = append(a.schedules, schedule{at: a.events + after, f: f})
}

// Reset discards all armed mutations — replays, splices, drops and
// pending schedules — returning the adversary to a transparent
// pass-through. Traffic counters and observer hooks are untouched.
func (a *Adversary) Reset() {
	a.replays = a.replays[:0]
	a.splices = a.splices[:0]
	a.drops = a.drops[:0]
	a.schedules = a.schedules[:0]
}

// step counts one transaction and fires any schedules that have come due.
// Firing happens before the caller touches storage, so a scheduled attack
// can tamper with the bytes the triggering transaction itself observes.
func (a *Adversary) step() {
	a.events++
	if len(a.schedules) == 0 {
		return
	}
	kept := a.schedules[:0]
	for _, sc := range a.schedules {
		if a.events > sc.at {
			sc.f()
		} else {
			kept = append(kept, sc)
		}
	}
	a.schedules = kept
}

// Read implements Memory, applying active replays and splices byte-wise so
// that attacks spanning partial blocks behave like real bus substitution.
func (a *Adversary) Read(addr uint64, p []byte) {
	a.Reads += uint64(len(p))
	a.step()
	if a.OnRead != nil {
		a.OnRead(addr, len(p))
	}
	a.inner.Read(addr, p)
	if len(a.replays) == 0 && len(a.splices) == 0 {
		return
	}
	for i := range p {
		ai := addr + uint64(i)
		for _, sp := range a.splices {
			if sp.contains(ai) {
				var b [1]byte
				a.inner.Read(sp.src+(ai-sp.addr), b[:])
				p[i] = b[0]
			}
		}
		for _, rp := range a.replays {
			if rp.active && rp.contains(ai) {
				p[i] = rp.data[ai-rp.addr]
			}
		}
	}
}

// Write implements Memory, discarding bytes that land in drop regions.
func (a *Adversary) Write(addr uint64, p []byte) {
	a.Writes += uint64(len(p))
	a.step()
	if a.OnWrite != nil {
		a.OnWrite(addr, len(p))
	}
	if len(a.drops) == 0 {
		a.inner.Write(addr, p)
		return
	}
	for i := range p {
		ai := addr + uint64(i)
		dropped := false
		for _, d := range a.drops {
			if d.contains(ai) {
				dropped = true
				break
			}
		}
		if !dropped {
			a.inner.Write(ai, p[i:i+1])
		}
	}
}
