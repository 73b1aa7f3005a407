// Package chaos is a deterministic, seeded fault-injection campaign engine
// for the memory-integrity simulator. A campaign mounts randomized physical
// attacks — bit flips, burst corruption, snapshot replay, address splicing
// and dropped write-backs — against data blocks, tree-node chunks, and
// stored hash/MAC records of a live functional machine, and measures
// whether and how fast the verification scheme detects each one.
//
// Determinism is a hard requirement: every random choice flows from one
// trace.RNG seeded by Config.Seed, each injection runs on a fresh machine,
// and reports contain no map iteration or wall-clock state, so identical
// seeds produce byte-identical CSV and JSON reports. That makes a campaign
// usable as a CI regression gate.
//
// The paper's detection claim (§3, §5.8) is about tampering of external
// memory that the processor subsequently consumes. A campaign is
// engineered so every injection is consumable and detection is decidable:
//
//   - The machine's protected state is flushed and invalidated before the
//     injection, so the tamper lands post-eviction — a dirty cached copy
//     cannot silently heal memory afterwards.
//   - Post-injection program stores never touch the tampered chunk (or the
//     splice partner), so a legitimate overwrite cannot neutralize the
//     tamper before anything reads it.
//   - If the random post-injection traffic never happens to read through
//     the tampered bytes, a final deadline sweep re-evicts everything and
//     loads straight through them, forcing the verification path over the
//     corruption.
//
// Under those rules every tree scheme must detect every injection: Outcome
// "missed" is a real bug in the verification machinery, and the campaign's
// summary is asserted on in CI.
package chaos

import (
	"bytes"
	"fmt"

	"memverify/internal/core"
	"memverify/internal/telemetry"
	"memverify/internal/trace"
)

// Attack kinds. Stored as strings so reports read without a legend.
const (
	KindBitFlip   = "bit-flip"
	KindBurst     = "burst"
	KindReplay    = "replay"
	KindSplice    = "splice"
	KindDropWrite = "drop-write"
)

// Attack targets.
const (
	TargetData   = "data"   // a program data chunk
	TargetNode   = "node"   // an interior tree-node chunk on a data path
	TargetRecord = "record" // the stored hash/MAC record of a data chunk
)

// Injection outcomes.
const (
	OutcomeDetectedLive  = "detected-live"  // flagged by random post-injection traffic
	OutcomeDetectedSweep = "detected-sweep" // flagged by the deadline sweep
	OutcomeMissed        = "missed"         // never flagged — a verification bug
)

// Config parameterizes one campaign. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	Seed   uint64
	Scheme core.Scheme
	Policy string // "record" or "halt"

	// Injections is the number of fault injections to run. Each runs on a
	// fresh machine so earlier corruption cannot mask later detection.
	Injections int

	// WarmAccesses program stores/loads run before each injection so the
	// tamper lands in state the machine actually uses; PostAccesses random
	// accesses run after it, measuring live detection latency.
	WarmAccesses int
	PostAccesses int

	// Machine sizing. Small regions keep thousand-injection campaigns fast
	// while still exercising multi-level trees.
	ProtectedBytes uint64
	L2Size         int

	// VerifyCacheLines/VerifyCacheAssoc give tree nodes a dedicated cache
	// on every injection's machine — the campaign legs proving the
	// dedicated verification cache never weakens detection.
	VerifyCacheLines int
	VerifyCacheAssoc int

	// Telemetry, when non-nil, attaches the recorder to every injection's
	// machine (cmd/chaos -trace/-metrics). Each injection runs on a fresh
	// machine, so each shows up as its own process in the exported trace.
	// A recorder is single-goroutine; campaigns already run serially.
	Telemetry *telemetry.Recorder
}

// DefaultConfig returns a campaign sized for CI: a 3-level tree over a
// 64 KiB protected region with an 8 KiB L2, so chunks actually leave the
// cache and every attack class has room to land.
func DefaultConfig(scheme core.Scheme) Config {
	return Config{
		Seed:           1,
		Scheme:         scheme,
		Policy:         "record",
		Injections:     100,
		WarmAccesses:   24,
		PostAccesses:   24,
		ProtectedBytes: 64 << 10,
		L2Size:         8 << 10,
	}
}

// machineConfig builds the simulator configuration for one injection.
func (c Config) machineConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Scheme = c.Scheme
	cfg.Functional = true
	cfg.HashAlg = "sha256"
	cfg.ViolationPolicy = c.Policy
	cfg.ProtectedBytes = c.ProtectedBytes
	cfg.L2Size = c.L2Size
	cfg.Benchmark = trace.Uniform("chaos", c.ProtectedBytes/2)
	cfg.Benchmark.CodeSet = 4 << 10
	if c.Scheme == core.SchemeMulti || c.Scheme == core.SchemeIncr {
		cfg.ChunkBlocks = 2
	}
	cfg.VerifyCacheLines = c.VerifyCacheLines
	cfg.VerifyCacheAssoc = c.VerifyCacheAssoc
	cfg.Telemetry = c.Telemetry
	return cfg
}

// kinds is the campaign's attack-kind rotation.
var kinds = []string{KindBitFlip, KindBurst, KindReplay, KindSplice, KindDropWrite}

// targetsFor lists the targets an attack kind can aim at. Splice needs two
// chunks whose contents the campaign controls, so it stays on data.
func targetsFor(kind string) []string {
	if kind == KindSplice {
		return []string{TargetData}
	}
	return []string{TargetData, TargetNode, TargetRecord}
}

// Run executes the campaign and returns its report. The error is
// configuration-level (an unbuildable machine); per-injection results are
// in the report.
func Run(cfg Config) (*Report, error) {
	if cfg.Injections <= 0 {
		return nil, fmt.Errorf("chaos: Injections must be positive")
	}
	if cfg.Scheme == core.SchemeBase {
		return nil, fmt.Errorf("chaos: the base scheme has no verification to campaign against")
	}
	rng := trace.NewRNG(cfg.Seed)
	rep := &Report{
		Seed:   cfg.Seed,
		Scheme: string(cfg.Scheme),
		Policy: cfg.Policy,
	}
	for i := 0; i < cfg.Injections; i++ {
		kind := kinds[i%len(kinds)]
		targets := targetsFor(kind)
		target := targets[rng.Intn(len(targets))]
		inj, err := runInjection(cfg, i, kind, target, rng)
		if err != nil {
			return nil, fmt.Errorf("chaos: injection %d (%s/%s): %w", i, kind, target, err)
		}
		rep.Injections = append(rep.Injections, *inj)
	}
	rep.summarize()
	return rep, nil
}

// CleanViolations runs the campaign's access pattern — warm traffic, the
// full eviction barrier, post traffic, and the deadline sweep — with no
// adversary attached, and returns the number of violations flagged. Any
// nonzero result is a false positive in the verification machinery.
func CleanViolations(cfg Config) (uint64, error) {
	m, err := core.NewMachine(cfg.machineConfig())
	if err != nil {
		return 0, err
	}
	rng := trace.NewRNG(cfg.Seed)
	span := m.ProgSpan()
	blk := uint64(m.Cfg.L2Block)
	for i := 0; i < cfg.WarmAccesses+cfg.PostAccesses; i++ {
		off := rng.Uint64() % span
		if rng.Intn(2) == 0 {
			if err := m.StoreBytes(off, []byte{byte(rng.Uint64())}); err != nil {
				return 0, err
			}
		} else {
			if err := m.LoadBytes(off, make([]byte, 1)); err != nil &&
				m.Sys.Stat.Violations == 0 {
				return 0, err
			}
		}
		if i == cfg.WarmAccesses {
			m.EvictProtected()
		}
	}
	m.EvictProtected()
	if err := m.LoadBytes(0, make([]byte, blk)); err != nil && m.Sys.Stat.Violations == 0 {
		return 0, err
	}
	return m.Sys.Stat.Violations, nil
}

// campaignState is the per-injection working set.
type campaignState struct {
	cfg Config
	m   *core.Machine
	rng *trace.RNG

	span uint64 // program data span for ProgAddr offsets
	blk  uint64

	// tamperAddr/tamperSize is the memory region the attack corrupted (or
	// whose reads it subverts); observed/healed track adversary-bus
	// traffic overlapping it.
	tamperAddr uint64
	tamperSize uint64
	observed   bool
	healed     bool

	// excluded lists the chunks post-injection stores must avoid, so a
	// legitimate overwrite cannot neutralize the tamper.
	excluded []uint64

	// sweepOff is the program data offset whose load path is guaranteed to
	// read through the corruption during the deadline sweep.
	sweepOff uint64
}

// runInjection performs one complete injection lifecycle on a fresh machine.
func runInjection(cfg Config, id int, kind, target string, rng *trace.RNG) (*Injection, error) {
	m, err := core.NewMachine(cfg.machineConfig())
	if err != nil {
		return nil, err
	}
	st := &campaignState{cfg: cfg, m: m, rng: rng, span: m.ProgSpan(), blk: uint64(m.Cfg.L2Block)}

	// Warm traffic: make the protected region live state, not just the
	// initialization image.
	for i := 0; i < cfg.WarmAccesses; i++ {
		off := rng.Uint64() % st.span
		if rng.Intn(2) == 0 {
			if err := m.StoreBytes(off, []byte{byte(rng.Uint64())}); err != nil {
				return nil, err
			}
		} else {
			if err := m.LoadBytes(off, make([]byte, 1)); err != nil {
				return nil, fmt.Errorf("clean warm load flagged a violation: %w", err)
			}
		}
	}

	inj := &Injection{ID: id, Kind: kind, Target: target}
	if err := st.inject(inj); err != nil {
		return nil, err
	}
	st.observe(inj)
	return inj, nil
}

// dataOffInChunk returns a program data offset whose address lands in a
// uniformly chosen data chunk, plus that chunk's index.
func (st *campaignState) dataOffInChunk() (off uint64, chunk uint64) {
	off = st.rng.Uint64() % st.span
	chunk = st.m.Layout.ChunkOf(st.m.ProgAddr(off))
	return off, chunk
}

// chunkSpanOff returns a data offset such that offsets [off, off+n) stay
// inside one chunk.
func (st *campaignState) chunkSpanOff(n uint64) uint64 {
	cs := uint64(st.m.Layout.ChunkSize)
	for {
		off := st.rng.Uint64() % st.span
		a := st.m.ProgAddr(off)
		if a%cs+n <= cs && off+n <= st.span {
			return off
		}
	}
}

// nonzeroMask returns a uniformly random nonzero byte.
func (st *campaignState) nonzeroMask() byte {
	for {
		if b := byte(st.rng.Uint64()); b != 0 {
			return b
		}
	}
}

// inject mounts the chosen attack. On return the machine's protected state
// is fully evicted, the tamper is live in (or on the read path of) external
// memory, and st's bookkeeping describes it.
func (st *campaignState) inject(inj *Injection) error {
	m := st.m
	lay := m.Layout
	cs := uint64(lay.ChunkSize)

	// Pick the victim: a data chunk, plus the attacked region within the
	// tree derived from it. sweepOff always maps to a data address whose
	// verification path covers the corruption.
	dataOff, dataChunk := st.dataOffInChunk()
	st.sweepOff = dataOff - dataOff%st.blk
	victimChunk := dataChunk
	var victimAddr, victimSize uint64
	switch inj.Target {
	case TargetData:
		victimAddr, victimSize = lay.ChunkAddr(dataChunk), cs
	case TargetNode:
		// PathToRoot excludes the data chunk itself: every entry is an
		// interior ancestor, up to and including the top chunk.
		path := lay.PathToRoot(dataChunk)
		victimChunk = path[st.rng.Intn(len(path))]
		victimAddr, victimSize = lay.ChunkAddr(victimChunk), cs
	case TargetRecord:
		slot, ok := lay.HashAddr(dataChunk)
		if !ok {
			return fmt.Errorf("data chunk %d has no stored record", dataChunk)
		}
		victimChunk = lay.ChunkOf(slot)
		victimAddr, victimSize = slot, uint64(lay.HashSize)
	}
	inj.Chunk = victimChunk
	inj.Addr = victimAddr
	st.excluded = append(st.excluded, dataChunk)
	st.tamperAddr, st.tamperSize = victimAddr, victimSize

	adv := m.Adversary()
	switch inj.Kind {
	case KindBitFlip:
		m.EvictProtected()
		adv.Corrupt(victimAddr+st.rng.Uint64()%victimSize, st.nonzeroMask())

	case KindBurst:
		m.EvictProtected()
		n := uint64(2 + st.rng.Intn(14))
		if n > victimSize {
			n = victimSize
		}
		mask := make([]byte, n)
		for i := range mask {
			mask[i] = byte(st.rng.Uint64())
		}
		mask[st.rng.Intn(int(n))] = st.nonzeroMask() // at least one real flip
		adv.CorruptBurst(victimAddr+st.rng.Uint64()%(victimSize-n+1), mask)

	case KindReplay:
		// Snapshot the victim chunk, change it legitimately, then replay
		// the stale bytes. For data the change is a direct store; for tree
		// targets it is the record update a store underneath forces.
		base := lay.ChunkAddr(victimChunk)
		if err := m.StoreBytes(dataOff-dataOff%st.blk, bytes.Repeat([]byte{0xA5}, int(st.blk))); err != nil {
			return err
		}
		m.EvictProtected()
		snap := adv.Snapshot(base, cs)
		if err := m.StoreBytes(dataOff-dataOff%st.blk, bytes.Repeat([]byte{0x5A}, int(st.blk))); err != nil {
			return err
		}
		m.EvictProtected()
		adv.Replay(snap)
		st.tamperAddr, st.tamperSize = base, cs

	case KindSplice:
		// Write distinct patterns into two different chunks, then answer
		// reads of the first with the second's bytes.
		dstOff := st.chunkSpanOff(st.blk)
		dst := lay.ChunkOf(m.ProgAddr(dstOff))
		var srcOff uint64
		var src uint64
		for {
			srcOff = st.chunkSpanOff(st.blk)
			src = lay.ChunkOf(m.ProgAddr(srcOff))
			if src != dst {
				break
			}
		}
		if err := m.StoreBytes(dstOff, bytes.Repeat([]byte{0x11}, int(st.blk))); err != nil {
			return err
		}
		if err := m.StoreBytes(srcOff, bytes.Repeat([]byte{0xEE}, int(st.blk))); err != nil {
			return err
		}
		m.EvictProtected()
		adv.Splice(lay.ChunkAddr(dst), lay.ChunkAddr(src), cs)
		inj.Chunk = dst
		inj.Addr = lay.ChunkAddr(dst)
		st.tamperAddr, st.tamperSize = lay.ChunkAddr(dst), cs
		st.excluded = []uint64{dst, src}
		st.sweepOff = dstOff - dstOff%st.blk

	case KindDropWrite:
		// Drop the engine's writes to the victim region, then force a
		// legitimate update through it: memory keeps the stale bytes while
		// the surviving writes cover the new state.
		adv.DropWrites(victimAddr, victimSize)
		if err := m.StoreBytes(dataOff-dataOff%st.blk, bytes.Repeat([]byte{0xC3}, int(st.blk))); err != nil {
			return err
		}
		m.EvictProtected()

	default:
		return fmt.Errorf("unknown attack kind %q", inj.Kind)
	}

	// Arm the observation hooks after the injection's own setup traffic so
	// they describe only post-injection consumption.
	adv.OnRead = func(addr uint64, n int) {
		if addr < st.tamperAddr+st.tamperSize && addr+uint64(n) > st.tamperAddr {
			st.observed = true
		}
	}
	adv.OnWrite = func(addr uint64, n int) {
		if addr < st.tamperAddr+st.tamperSize && addr+uint64(n) > st.tamperAddr {
			st.healed = true
		}
	}
	return nil
}

// tamperResident reports whether the tampered block is currently cached —
// in the L2 or, for tree nodes under a dedicated verification cache, the VC.
func (st *campaignState) tamperResident() bool {
	ba := st.m.L2.BlockAddr(st.tamperAddr)
	if st.m.L2.Peek(ba) != nil {
		return true
	}
	return st.m.VC != nil && st.m.VC.Peek(ba) != nil
}

// excludedChunk reports whether a program data offset's chunk is off-limits
// for post-injection stores.
func (st *campaignState) excludedChunk(off uint64) bool {
	c := st.m.Layout.ChunkOf(st.m.ProgAddr(off))
	for _, e := range st.excluded {
		if c == e {
			return true
		}
	}
	return false
}

// observe drives random post-injection traffic, then the deadline sweep,
// classifying the outcome and measuring detection latency.
func (st *campaignState) observe(inj *Injection) {
	m := st.m
	injectCycle := m.Now()
	baseViol := m.Sys.Stat.Violations

	detected := func() bool { return m.Sys.Stat.Violations > baseViol }

	for i := 0; i < st.cfg.PostAccesses && !detected(); i++ {
		off := st.rng.Uint64() % st.span
		if st.rng.Intn(2) == 0 && !st.excludedChunk(off) {
			// Store errors are expected under the halt policy once a prior
			// access detected the tamper; detection is what we measure.
			_ = m.StoreBytes(off, []byte{byte(st.rng.Uint64())})
		} else {
			_ = m.LoadBytes(off, make([]byte, 1))
		}
		inj.Accesses++
		if !detected() && st.tamperResident() {
			inj.ResidentAccesses++
		}
	}
	if detected() {
		inj.Outcome = OutcomeDetectedLive
		inj.LatencyAccesses = inj.Accesses
		inj.LatencyCycles = m.Now() - injectCycle
	} else {
		// Deadline sweep: force the verification path straight through the
		// corruption. Flush-side detection (e.g. the naive scheme verifying
		// a path during eviction) counts the same as load-side.
		m.EvictProtected()
		if !detected() {
			_ = m.LoadBytes(st.sweepOff, make([]byte, st.blk))
		}
		if detected() {
			inj.Outcome = OutcomeDetectedSweep
			inj.LatencyAccesses = inj.Accesses + 1
			inj.LatencyCycles = m.Now() - injectCycle
		} else {
			inj.Outcome = OutcomeMissed
		}
	}
	inj.Observed = st.observed
	inj.Healed = st.healed
}
