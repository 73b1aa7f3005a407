package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"memverify/internal/bus"
	"memverify/internal/cache"
	"memverify/internal/cpu"
	"memverify/internal/dram"
	"memverify/internal/htree"
	"memverify/internal/integrity"
	"memverify/internal/mem"
	"memverify/internal/prefetch"
	"memverify/internal/telemetry"
	"memverify/internal/tlb"
	"memverify/internal/trace"
)

// Machine is one assembled simulated computer: core, caches, verification
// engine, bus, DRAM and (in functional mode) real memory contents.
type Machine struct {
	Cfg    Config
	Bus    *bus.Bus
	DRAM   *dram.DRAM
	L1I    *cache.Cache
	L1D    *cache.Cache
	L2     *cache.Cache
	VC     *cache.Cache // dedicated verification cache; nil = shared L2
	ITLB   *tlb.TLB
	DTLB   *tlb.TLB
	Sys    *integrity.System
	Engine integrity.Engine
	Layout *htree.Layout
	CPU    *cpu.CPU

	backing *mem.Sparse
	adv     *mem.Adversary
	tel     *telemetry.Trace // nil unless Cfg.Telemetry is attached

	policy    integrity.ViolationPolicy
	halted    bool
	haltCause *integrity.ViolationError
	observer  func(*integrity.ViolationError)

	codeBase uint64
	codeSize uint64
	dataBase uint64
	dataSize uint64
	storeSeq uint64
	now      uint64 // advancing store-stamp clock for direct accesses
	snapSeq  uint64 // Seq of the latest snapshot; 0 when none is current
}

// ErrHalted is returned by LoadBytes and StoreBytes once a machine running
// under ViolationPolicy "halt" has detected an integrity violation — the
// machine-level security exception of §5.8. Use errors.Is to test for it;
// the wrapped message carries the first violation.
var ErrHalted = errors.New("core: machine halted by integrity violation")

// NewMachine assembles a machine from cfg over an all-zero protected
// region, its hash tree computed from those contents.
func NewMachine(cfg Config) (*Machine, error) { return newMachine(cfg, nil, nil) }

// NewMachineFromState assembles a machine from cfg whose protected region
// is img and whose root register is root — a SaveState snapshot, typically
// one read back from disk. Nothing is hashed and nothing is trusted yet:
// the tree is whatever img holds, and reads verify it against root as they
// go (VerifyAll checks all of it at once).
func NewMachineFromState(cfg Config, img, root []byte) (*Machine, error) {
	if img == nil {
		return nil, fmt.Errorf("core: NewMachineFromState needs a state image")
	}
	return newMachine(cfg, img, root)
}

// newMachine is the one constructor. The tree source is img and root when
// img is non-nil, and the engine's own initialization otherwise.
func newMachine(cfg Config, img, root []byte) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{Cfg: cfg}
	m.Bus = bus.New(cfg.BusBeatBytes, cfg.BusCyclesPerBeat)
	m.DRAM = dram.New(cfg.MemLatency, m.Bus)
	m.backing = mem.NewSparse()

	m.L1I = cache.New(cache.Config{Name: "L1I", Size: cfg.L1Size, Ways: cfg.L1Ways, BlockSize: cfg.L1Block})
	m.L1D = cache.New(cache.Config{Name: "L1D", Size: cfg.L1Size, Ways: cfg.L1Ways, BlockSize: cfg.L1Block})
	m.ITLB = tlb.New(cfg.TLB)
	m.DTLB = tlb.New(cfg.TLB)
	m.L2 = cache.New(cache.Config{
		Name: "L2", Size: cfg.L2Size, Ways: cfg.L2Ways, BlockSize: cfg.L2Block,
		DataBearing: cfg.Functional,
	})
	// The dedicated verification cache and the ancestor prefetcher only
	// make sense for the tree-caching schemes: base has no tree, and the
	// naive scheme never caches tree nodes by definition.
	treeCaching := cfg.Scheme == SchemeCached || cfg.Scheme == SchemeMulti || cfg.Scheme == SchemeIncr
	if treeCaching && cfg.VerifyCacheLines > 0 {
		m.VC = cache.New(cache.Config{
			Name: "VC", Size: cfg.VerifyCacheLines * cfg.L2Block,
			Ways: cfg.verifyCacheWays(), BlockSize: cfg.L2Block,
			DataBearing: cfg.Functional,
		})
	}

	chunkSize := cfg.L2Block * cfg.ChunkBlocks
	layout, err := htree.NewLayout(chunkSize, cfg.HashSize, cfg.ProtectedBytes)
	if err != nil {
		return nil, err
	}
	m.Layout = layout

	alg, err := hashFor(cfg.HashAlg)
	if err != nil {
		return nil, err
	}
	mode, err := integrity.ParseHashMode(cfg.HashMode)
	if err != nil {
		return nil, err
	}
	policy, err := integrity.ParseViolationPolicy(cfg.ViolationPolicy)
	if err != nil {
		return nil, err
	}
	m.policy = policy
	m.Sys = &integrity.System{
		L2:          m.L2,
		Mem:         m.backing,
		DRAM:        m.DRAM,
		Unit:        integrity.NewHashUnit(cfg.HashLatency, cfg.HashBytesPerCycle, cfg.HashBuffers, cfg.HashBuffers),
		Layout:      layout,
		Alg:         alg,
		L2Latency:   cfg.L2Latency,
		CheckReads:  true,
		Functional:  cfg.Functional,
		HashMode:    mode,
		Policy:      policy,
		OnViolation: m.noteViolation,
		VC:          m.VC,
	}
	if treeCaching && cfg.Prefetch.Enabled {
		m.Sys.Prefetch = prefetch.New(cfg.Prefetch)
	}

	if rec := cfg.Telemetry; rec != nil {
		m.tel = rec.Trace
		m.tel.BeginProcess(fmt.Sprintf("%s/%s", cfg.Scheme, cfg.Benchmark.Name))
		m.Bus.Tel = rec.Trace
		m.DRAM.Tel = rec.Trace
		m.Sys.Unit.Tel = rec.Trace
		m.Sys.Tel = rec.Trace
		m.Sys.Probes = rec.Probes
		if p := rec.Probes; p != nil {
			m.Sys.Unit.ReadBuf.Occ = p.ReadBufOcc
			m.Sys.Unit.WriteBuf.Occ = p.WriteBufOcc
		}
		if rec.BusWindowCycles > 0 {
			m.Bus.SetWindow(rec.BusWindowCycles)
		}
	}

	switch cfg.Scheme {
	case SchemeBase:
		m.Engine = integrity.NewBase(m.Sys)
	case SchemeNaive:
		m.Engine = integrity.NewNaive(m.Sys)
	case SchemeCached, SchemeMulti:
		m.Engine = integrity.NewCached(m.Sys)
	case SchemeIncr:
		m.Engine = integrity.NewIncr(m.Sys, []byte("memverify-machine-key"))
	}
	switch {
	case img != nil:
		if err := m.installState(img, root); err != nil {
			return nil, err
		}
	case cfg.Functional && cfg.Scheme != SchemeBase:
		m.Engine.(integrity.TreeInitializer).InitializeTree()
	}

	// Program layout inside the protected data region: code first, data
	// after, both block-aligned.
	m.dataBase = layout.DataStart()
	m.codeBase = m.dataBase
	m.codeSize = alignUp(cfg.Benchmark.CodeSet, uint64(cfg.L2Block))
	if m.codeSize == 0 {
		m.codeSize = uint64(cfg.L2Block)
	}
	m.dataSize = cfg.ProtectedBytes - m.codeSize
	m.CPU = cpu.New(cfg.CPU, (*hierarchy)(m))
	return m, nil
}

func alignUp(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }

// Run executes the configured benchmark — a warm-up period, a counter
// reset, then cfg.Instructions of measurement — and returns the metrics.
func (m *Machine) Run() Metrics {
	return m.RunWith(newGenerator(m.Cfg))
}

// RunWith runs the machine over an arbitrary instruction source (e.g. a
// recorded trace replay) under the configured warm-up and budget.
func (m *Machine) RunWith(gen trace.Generator) Metrics {
	if m.Cfg.Warmup > 0 {
		m.CPU.Run(gen, m.Cfg.Warmup)
		m.ResetStats()
	}
	res := m.CPU.Run(gen, m.Cfg.Instructions)
	return m.metrics(res)
}

// ResetStats zeroes every statistics counter (cache, bus, DRAM, hash unit,
// integrity) while leaving all architectural state warm.
func (m *Machine) ResetStats() {
	m.L1I.ResetStats()
	m.L1D.ResetStats()
	m.L2.ResetStats()
	if m.VC != nil {
		m.VC.ResetStats()
	}
	m.Sys.Prefetch.ResetStats()
	m.ITLB.ResetStats()
	m.DTLB.ResetStats()
	m.Bus.ResetCounters()
	m.DRAM.ResetCounters()
	m.Sys.Unit.ResetCounters()
	m.Sys.ResetStats()
}

// noteViolation is the machine's OnViolation hook: it applies the halt
// policy and relays the event to any registered observer. Detection is
// already recorded in Sys.Stat by the time it runs.
func (m *Machine) noteViolation(v *integrity.ViolationError) {
	if m.policy == integrity.PolicyHalt {
		m.halted = true
		if m.haltCause == nil {
			m.haltCause = v
		}
	}
	if m.observer != nil {
		m.observer(v)
	}
}

// ObserveViolations registers f to be called on every detected violation,
// in addition to the machine's own policy handling. Passing nil removes
// the observer.
func (m *Machine) ObserveViolations(f func(*integrity.ViolationError)) {
	m.observer = f
}

// Halted reports whether the halt policy has fired; HaltCause returns the
// violation that tripped it (nil while running).
func (m *Machine) Halted() bool { return m.halted }

// HaltCause returns the first violation that halted the machine.
func (m *Machine) HaltCause() *integrity.ViolationError { return m.haltCause }

// Now returns the machine's advancing cycle clock for direct functional
// accesses — the timestamp StoreBytes/LoadBytes/Flush operate at. Chaos
// campaigns read it to measure detection latency in cycles.
func (m *Machine) Now() uint64 { return m.now }

// ProgSpan returns the size in bytes of the program data region ProgAddr
// maps offsets into.
func (m *Machine) ProgSpan() uint64 { return m.dataSize }

// EvictProtected drains all dirty cached state and then invalidates every
// protected line, so the next access to any protected address must go to
// (attackable) external memory — the post-eviction starting point of the
// paper's attack analysis.
func (m *Machine) EvictProtected() {
	m.Flush()
	for ba := uint64(0); ba < m.Layout.Size(); ba += uint64(m.Cfg.L2Block) {
		m.L2.Invalidate(ba)
		if m.VC != nil {
			m.VC.Invalidate(ba)
		}
	}
}

// Adversary interposes (once) a physical attacker on the memory bus and
// returns it. Subsequent calls return the same adversary. Timing-only hash
// execution panics — its checks are vacuous, so it cannot coexist with
// tampering.
func (m *Machine) Adversary() *mem.Adversary {
	if m.adv == nil {
		if m.Sys.HashMode == integrity.HashTiming {
			panic("core: timing-only hash execution is illegal with an adversary attached (use hash mode full)")
		}
		m.adv = mem.NewAdversary(m.backing)
		m.Sys.Mem = m.adv
	}
	return m.adv
}

// ProgAddr maps a program data offset to its physical address inside the
// protected region.
func (m *Machine) ProgAddr(off uint64) uint64 {
	return m.codeBase + m.codeSize + off%m.dataSize
}

// UnprotectedBase returns the first physical address beyond the hash
// tree's reach — the region DMA transfers land in (§5.7.1).
func (m *Machine) UnprotectedBase() uint64 {
	return alignUp(m.Layout.Size(), uint64(m.Cfg.L2Block))
}

// Flush drains all dirty cached state through the engine — the
// cryptographic barrier of §5.8 and step 3 of initialization.
func (m *Machine) Flush() {
	m.now = m.Engine.Flush(m.now)
}

// StoreBytes performs a program store of p at data offset off with real
// contents, through the normal L1/L2/engine write path (functional mode).
// Whole-block aligned spans take the §5.3 write-allocate optimization: a
// fully overwritten block is allocated without fetching or checking its
// old contents.
func (m *Machine) StoreBytes(off uint64, p []byte) error {
	if err := m.beginAccess("StoreBytes"); err != nil {
		return err
	}
	m.span(off, p, true)
	return nil
}

// LoadBytes performs a verified program load of len(p) bytes at data
// offset off. Any integrity violation detected during the load chain is
// returned (and also recorded in the system stats).
func (m *Machine) LoadBytes(off uint64, p []byte) error {
	if err := m.beginAccess("LoadBytes"); err != nil {
		return err
	}
	before := m.Sys.Stat.Violations
	m.span(off, p, false)
	if m.Sys.Stat.Violations > before {
		return m.Sys.First
	}
	return nil
}

// beginAccess is the entry gate of every direct functional access: it
// refuses a machine the halt policy has stopped.
func (m *Machine) beginAccess(op string) error {
	if !m.Cfg.Functional {
		return fmt.Errorf("core: %s requires a functional machine", op)
	}
	if m.halted {
		return fmt.Errorf("%w (%v)", ErrHalted, m.haltCause)
	}
	return nil
}

// span moves len(p) bytes between p and the program data region at offset
// off (wrapping at ProgSpan), one block at a time. A span costs exactly
// what its bytes cost one at a time — every byte is an L2 access in the
// counters, the LRU order and the clock — but the engine is entered once
// per block touched (l2data). A store that covers a whole aligned block
// allocates it without fetching the old contents (§5.3).
func (m *Machine) span(off uint64, p []byte, write bool) {
	h := (*hierarchy)(m)
	bs := uint64(m.Cfg.L2Block)
	for len(p) > 0 {
		o := off % m.dataSize
		a := m.codeBase + m.codeSize + o // ProgAddr(off)
		n := min(bs-a&(bs-1), m.dataSize-o, uint64(len(p)))
		if write && n == bs {
			ln := m.L2.Write(a, cache.Data)
			for try := 0; ln == nil; try++ {
				if try == fillRetries {
					panic("core: full-write allocation failed")
				}
				m.now = m.Engine.AllocateFullWrite(m.now, a)
				ln = m.L2.Peek(a)
			}
			copy(ln.Data, p[:n])
		} else {
			m.now = h.l2data(m.now, a, write, p[:n])
		}
		off += n
		p = p[n:]
	}
}

// VerifyAll drains the machine to a commit point and then reads every
// block of the layout's data region — the code region below ProgAddr(0)
// included — through the verification engine, so the whole external-memory
// image, every stored record on the way up, is checked against the root
// register. It stops at the first violation, which it returns (as it
// returns ErrHalted from a machine the halt policy has stopped).
func (m *Machine) VerifyAll() error {
	m.Flush()
	h := (*hierarchy)(m)
	before := m.Sys.Stat.Violations
	buf := make([]byte, m.Cfg.L2Block)
	for a := m.Layout.DataStart(); a < m.Layout.Size(); a += uint64(len(buf)) {
		if err := m.beginAccess("VerifyAll"); err != nil {
			return err
		}
		m.now = h.l2data(m.now, a, false, buf)
		if m.Sys.Stat.Violations > before {
			return m.Sys.First
		}
	}
	return nil
}

// Port exposes the machine's memory hierarchy as a cpu.MemPort, letting
// callers drive custom cores or probes over the same caches and engine.
func (m *Machine) Port() cpu.MemPort { return (*hierarchy)(m) }

// hierarchy adapts the Machine to cpu.MemPort. It is the L1 layer: L1
// hits cost L1Latency; misses go to the L2, whose misses go through the
// verification engine.
type hierarchy Machine

// fillRetries bounds re-fetches when a verification walk evicts the very
// block it was fetched for — possible in a small, low-associativity L2
// where a chunk's tree path conflicts with the data block's set. The
// first walk leaves the path resident, so the refetch sticks immediately;
// exhausting the bound means the geometry cannot hold one data line plus
// its path, which is a configuration bug worth crashing on.
const fillRetries = 4

func (h *hierarchy) mapPC(pc uint64) uint64 { return h.codeBase + pc%h.codeSize }

func (h *hierarchy) mapData(addr uint64) uint64 {
	return h.codeBase + h.codeSize + addr%h.dataSize
}

// l2read performs an L2 read access for a block, returning completion.
func (h *hierarchy) l2read(now uint64, addr uint64) uint64 {
	if h.L2.Read(addr, cache.Data) != nil {
		h.tel.Emit(telemetry.TrackL2, telemetry.KindL2Read, now, now+h.Cfg.L2Latency, addr, 0)
		return now + h.Cfg.L2Latency
	}
	done := h.Engine.ReadBlock(now+h.Cfg.L2Latency, addr)
	h.tel.Emit(telemetry.TrackL2, telemetry.KindL2Read, now, done, addr, 1)
	return done
}

// l2write performs an L2 write access (a dirty L1 line arriving, or a
// direct functional store), write-allocating on a miss. In functional
// mode the written bytes are stamped so hashes really change.
func (h *hierarchy) l2write(now uint64, addr uint64) uint64 {
	ln := h.L2.Write(addr, cache.Data)
	done := now + h.Cfg.L2Latency
	miss := uint64(0)
	if ln == nil {
		miss = 1
		for try := 0; ln == nil; try++ {
			if try == fillRetries {
				panic("core: write-allocate failed to cache the block")
			}
			if t := h.Engine.ReadBlock(now+h.Cfg.L2Latency, addr); t > done {
				done = t
			}
			ln = h.L2.Write(addr, cache.Data)
		}
	}
	h.tel.Emit(telemetry.TrackL2, telemetry.KindL2Write, now, done, addr, miss)
	if ln.Data != nil {
		// Stamp the stored-to word with a fresh value so write-backs
		// propagate real changes through the hash machinery.
		off := (addr - ln.Addr) &^ 7
		if off+8 <= uint64(len(ln.Data)) {
			binary.LittleEndian.PutUint64(ln.Data[off:], h.storeSeq|1<<63)
			h.storeSeq++
		}
	}
	return done
}

// l2data is the byte-accurate access of the span paths: p is the part of
// a span that lies within addr's block. The first byte is the access the
// engine sees — hit or miss, fill retries and the verification walk are
// those of a one-byte access — and the block, resident from then on,
// serves the remaining bytes as the L2 hits they are, accounted in bulk:
// the counters, the LRU clock and the cycle clock end where a byte-at-a-
// time loop would leave them, and a traced machine emits the same events.
func (h *hierarchy) l2data(now uint64, addr uint64, write bool, p []byte) uint64 {
	var ln *cache.Line
	kind := telemetry.KindL2Read
	if write {
		ln, kind = h.L2.Write(addr, cache.Data), telemetry.KindL2Write
	} else {
		ln = h.L2.Read(addr, cache.Data)
	}
	done := now + h.Cfg.L2Latency
	miss := uint64(0)
	if ln == nil {
		miss = 1
		for try := 0; ln == nil; try++ {
			if try == fillRetries {
				panic("core: fill failed to cache the block")
			}
			if t := h.Engine.ReadBlock(now+h.Cfg.L2Latency, addr); t > done {
				done = t
			}
			if write {
				ln = h.L2.Write(addr, cache.Data) // the allocating store dirties the line
			} else {
				ln = h.L2.Peek(addr)
			}
		}
	}
	if write {
		copy(ln.Data[addr-ln.Addr:], p)
	} else {
		copy(p, ln.Data[addr-ln.Addr:])
	}
	h.tel.Emit(telemetry.TrackL2, kind, now, done, addr, miss)
	rest := uint64(len(p)) - 1
	h.L2.Rehit(ln, cache.Data, rest, write)
	if h.tel != nil {
		for i := uint64(1); i <= rest; i++ {
			t := done + (i-1)*h.Cfg.L2Latency
			h.tel.Emit(telemetry.TrackL2, kind, t, t+h.Cfg.L2Latency, addr+i, 0)
		}
	}
	return done + rest*h.Cfg.L2Latency
}

// Barrier implements cpu.BarrierPort: a cryptographic instruction may not
// complete before every outstanding integrity check has (§5.8).
func (h *hierarchy) Barrier(now uint64) uint64 {
	if t := h.Sys.ChecksDone(); t > now {
		now = t
	}
	return now
}

// Fetch implements cpu.MemPort.
func (h *hierarchy) Fetch(now uint64, pc uint64) uint64 {
	a := h.mapPC(pc)
	now = h.ITLB.Lookup(now, a)
	if h.L1I.Read(a, cache.Data) != nil {
		return now + h.Cfg.L1Latency
	}
	t := h.l2read(now+h.Cfg.L1Latency, a)
	h.L1I.Fill(a, cache.Data, nil)
	return t
}

// Load implements cpu.MemPort.
func (h *hierarchy) Load(now uint64, addr uint64) uint64 {
	a := h.mapData(addr)
	now = h.DTLB.Lookup(now, a)
	if h.L1D.Read(a, cache.Data) != nil {
		return now + h.Cfg.L1Latency
	}
	t := h.l2read(now+h.Cfg.L1Latency, a)
	if ev := h.L1D.Fill(a, cache.Data, nil); ev.Valid && ev.Dirty {
		h.l2write(t, ev.Addr)
	}
	return t
}

// Store implements cpu.MemPort: the committed store writes into the L1D,
// allocating through the L2 on a miss.
func (h *hierarchy) Store(now uint64, addr uint64) uint64 {
	a := h.mapData(addr)
	now = h.DTLB.Lookup(now, a)
	if h.L1D.Write(a, cache.Data) != nil {
		return now + h.Cfg.L1Latency
	}
	t := h.l2read(now+h.Cfg.L1Latency, a)
	if ev := h.L1D.Fill(a, cache.Data, nil); ev.Valid && ev.Dirty {
		t = h.l2write(t, ev.Addr)
	}
	if h.L1D.Write(a, cache.Data) == nil {
		panic("core: L1D write-allocate failed")
	}
	return t
}
