// Package core wires the substrates into the paper's simulated machine: a
// 4-wide out-of-order core with L1 I/D caches, a unified L2 integrated
// with the hash-tree verification machinery, a shared memory bus and
// external DRAM. It is the public entry point: build a Config, call Run
// (or NewMachine for finer control), read the Metrics.
package core

import (
	"fmt"

	"memverify/internal/cpu"
	"memverify/internal/hashalg"
	"memverify/internal/integrity"
	"memverify/internal/prefetch"
	"memverify/internal/stats"
	"memverify/internal/telemetry"
	"memverify/internal/tlb"
	"memverify/internal/trace"
)

// Scheme selects the verification engine, using the paper's labels.
type Scheme string

// The five schemes of the evaluation (§6).
const (
	// SchemeBase is a standard processor without verification.
	SchemeBase Scheme = "base"
	// SchemeNaive verifies with an uncached hash tree (§5.2).
	SchemeNaive Scheme = "naive"
	// SchemeCached caches tree nodes in the L2, one block per chunk (§5.3).
	SchemeCached Scheme = "c"
	// SchemeMulti is SchemeCached with multi-block chunks (§5.4).
	SchemeMulti Scheme = "m"
	// SchemeIncr is SchemeMulti with incremental MACs (§5.5).
	SchemeIncr Scheme = "i"
)

// Config describes one simulation. DefaultConfig returns Table 1; override
// fields and pass to Run.
type Config struct {
	Scheme       Scheme
	Benchmark    trace.Profile
	Instructions uint64
	// Warmup instructions run before counters reset and measurement
	// starts — the stand-in for the paper's 1.5 B-instruction skip.
	Warmup uint64
	Seed   uint64

	// L1 instruction and data caches.
	L1Size    int
	L1Ways    int
	L1Block   int
	L1Latency uint64

	// Unified L2.
	L2Size    int
	L2Ways    int
	L2Block   int
	L2Latency uint64

	// External memory and bus.
	MemLatency       uint64 // first-chunk DRAM latency in cycles
	BusBeatBytes     int
	BusCyclesPerBeat uint64

	// Hash machinery.
	ChunkBlocks       int     // L2 blocks per hash chunk (1 = scheme c)
	HashSize          int     // stored hash/MAC record bytes
	HashLatency       uint64  // hash pipeline latency in cycles
	HashBytesPerCycle float64 // hash throughput (GB/s at the 1 GHz clock)
	HashBuffers       int     // read and write buffer entries
	HashAlg           string  // "md5", "sha1" or "fnv128"

	// TLB configures the instruction and data translation buffers.
	TLB tlb.Config

	// ProtectedBytes is the size of the verified program region. The
	// paper protects the machine's full 4 GB physical memory; functional
	// runs use smaller regions so the tree can be materialized.
	ProtectedBytes uint64

	// Functional enables real data movement and verification. Timing is
	// identical either way; see integrity.System.Functional.
	Functional bool

	// HashMode selects how much real digest arithmetic functional runs
	// perform: "full" (or empty) computes every digest, "timing" charges
	// the modeled hash latency but skips the arithmetic (illegal once an
	// adversary attaches). Both produce identical Metrics; see
	// integrity.HashMode.
	HashMode string

	// VerifyCacheLines, when > 0, gives the integrity layer a dedicated
	// verification cache: hash-tree (interior) chunks are held in a
	// separate cache of VerifyCacheLines lines of L2Block bytes instead of
	// competing with data in the shared L2 — the paper's dedicated-vs-
	// shared ablation. 0 (the default) keeps today's shared-L2 behaviour.
	// Ignored by the base scheme, which has no tree.
	VerifyCacheLines int
	// VerifyCacheAssoc is the dedicated verification cache's
	// associativity. 0 defaults to L2Ways.
	VerifyCacheAssoc int

	// Prefetch configures the tree-ancestor prefetcher: a delta-pattern
	// engine observing the integrity layer's chunk-access stream that
	// pulls predicted chunks' uncached tree ancestors into the cache ahead
	// of the demand miss. Prefetch fills are lowest-priority bus traffic
	// and are dropped under contention, so timing stays honest; data and
	// roots are byte-identical with the engine on or off. The zero value
	// disables it.
	Prefetch prefetch.Config

	// ViolationPolicy selects the containment behaviour after a detected
	// integrity violation: "record" (or empty) counts and continues,
	// "halt" makes every subsequent LoadBytes/StoreBytes return ErrHalted
	// (the §5.8 security exception), "retry" re-fetches a failing chunk
	// once to distinguish transient bus/DRAM faults from persistent
	// tampering. See integrity.ViolationPolicy.
	ViolationPolicy string

	// Telemetry, when non-nil, attaches the observability layer: every
	// timed component emits cycle-timestamped events into the recorder's
	// trace, the hash-buffer and verification-overhead probes are armed,
	// and the bus accumulates occupancy windows. nil (the default) is the
	// zero-overhead fast path. A recorder is single-goroutine: machines
	// sharing one must run serially.
	Telemetry *telemetry.Recorder

	CPU cpu.Config
}

// DefaultConfig returns the architectural parameters of Table 1 (OCR-lost
// digits reconstructed per DESIGN.md), with the gcc workload and a 1 M
// instruction budget.
func DefaultConfig() Config {
	return Config{
		Scheme:       SchemeCached,
		Benchmark:    trace.GCC,
		Instructions: 1_000_000,
		Warmup:       300_000,
		Seed:         1,

		L1Size:    64 << 10,
		L1Ways:    2,
		L1Block:   32,
		L1Latency: 1,

		L2Size:    1 << 20,
		L2Ways:    4,
		L2Block:   64,
		L2Latency: 10,

		MemLatency:       80,
		BusBeatBytes:     8,
		BusCyclesPerBeat: 5, // 200 MHz bus on a 1 GHz core = 1.6 GB/s

		ChunkBlocks:       1,
		HashSize:          16, // 128-bit hashes
		HashLatency:       80,
		HashBytesPerCycle: 3.2, // 3.2 GB/s = one 64 B hash per 20 cycles
		HashBuffers:       16,
		HashAlg:           "fnv128",

		TLB: tlb.DefaultConfig(),

		ProtectedBytes: 4 << 30,
		Functional:     false,

		CPU: cpu.DefaultConfig(),
	}
}

// Validate checks the configuration for consistency. Every misconfiguration
// reachable from Config — including geometry the engine and substrate
// constructors would otherwise panic on — is returned as a descriptive
// error, so NewMachine never panics on user input; panics below this layer
// flag genuine engine-invariant bugs only.
func (c *Config) Validate() error {
	switch c.Scheme {
	case SchemeBase, SchemeNaive, SchemeCached, SchemeMulti, SchemeIncr:
	default:
		return fmt.Errorf("core: unknown scheme %q", c.Scheme)
	}
	if c.ChunkBlocks < 1 {
		return fmt.Errorf("core: ChunkBlocks must be >= 1, got %d", c.ChunkBlocks)
	}
	if c.Scheme == SchemeCached && c.ChunkBlocks != 1 {
		return fmt.Errorf("core: scheme c requires ChunkBlocks == 1, got %d", c.ChunkBlocks)
	}
	if (c.Scheme == SchemeMulti || c.Scheme == SchemeIncr) && c.ChunkBlocks < 2 {
		return fmt.Errorf("core: scheme %s requires ChunkBlocks >= 2, got %d", c.Scheme, c.ChunkBlocks)
	}
	if c.Scheme == SchemeNaive && c.ChunkBlocks != 1 {
		return fmt.Errorf("core: the naive scheme is defined for ChunkBlocks == 1, got %d", c.ChunkBlocks)
	}
	if c.Scheme == SchemeIncr {
		if c.HashSize != hashalg.MACSize {
			return fmt.Errorf("core: scheme i stores %d-byte MAC records, got HashSize %d", hashalg.MACSize, c.HashSize)
		}
		if c.ChunkBlocks > hashalg.MaxMACBlocks {
			return fmt.Errorf("core: scheme i chunks span at most %d blocks (one stamp bit each), got %d",
				hashalg.MaxMACBlocks, c.ChunkBlocks)
		}
	}
	if err := validateCacheGeometry("L1", c.L1Size, c.L1Ways, c.L1Block); err != nil {
		return err
	}
	if err := validateCacheGeometry("L2", c.L2Size, c.L2Ways, c.L2Block); err != nil {
		return err
	}
	if c.VerifyCacheLines < 0 {
		return fmt.Errorf("core: VerifyCacheLines must be >= 0, got %d", c.VerifyCacheLines)
	}
	if c.VerifyCacheLines > 0 {
		if err := validateCacheGeometry("verification cache",
			c.VerifyCacheLines*c.L2Block, c.verifyCacheWays(), c.L2Block); err != nil {
			return err
		}
	}
	if err := c.Prefetch.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.HashSize <= 0 {
		return fmt.Errorf("core: HashSize must be positive, got %d", c.HashSize)
	}
	if chunk := c.L2Block * c.ChunkBlocks; c.Scheme != SchemeBase && chunk%c.HashSize != 0 {
		return fmt.Errorf("core: chunk size %d not a multiple of HashSize %d", chunk, c.HashSize)
	}
	if chunk := c.L2Block * c.ChunkBlocks; c.Scheme != SchemeBase && chunk/c.HashSize < 2 {
		return fmt.Errorf("core: tree arity %d < 2 (chunk %dB, hash %dB)", chunk/c.HashSize, chunk, c.HashSize)
	}
	if c.HashBuffers < 1 {
		return fmt.Errorf("core: HashBuffers must be >= 1, got %d", c.HashBuffers)
	}
	if c.HashBytesPerCycle <= 0 {
		return fmt.Errorf("core: HashBytesPerCycle must be positive, got %g", c.HashBytesPerCycle)
	}
	if _, err := hashalg.New(c.HashAlg); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.BusBeatBytes <= 0 || c.BusCyclesPerBeat == 0 {
		return fmt.Errorf("core: bus beat geometry must be positive (got %dB / %d cycles)",
			c.BusBeatBytes, c.BusCyclesPerBeat)
	}
	t := c.TLB
	if t.Entries <= 0 || t.Ways <= 0 || t.Entries%t.Ways != 0 {
		return fmt.Errorf("core: TLB entries %d must be a positive multiple of ways %d", t.Entries, t.Ways)
	}
	if nsets := t.Entries / t.Ways; nsets&(nsets-1) != 0 {
		return fmt.Errorf("core: TLB set count %d not a power of two", t.Entries/t.Ways)
	}
	if t.PageSize == 0 || t.PageSize&(t.PageSize-1) != 0 {
		return fmt.Errorf("core: TLB page size %d not a positive power of two", t.PageSize)
	}
	if c.CPU.FetchWidth <= 0 || c.CPU.CommitWidth <= 0 || c.CPU.RUUSize <= 0 || c.CPU.LSQSize <= 0 {
		return fmt.Errorf("core: CPU widths and window sizes must be positive")
	}
	if c.Instructions == 0 {
		return fmt.Errorf("core: zero instruction budget")
	}
	if c.ProtectedBytes == 0 && c.Scheme != SchemeBase {
		return fmt.Errorf("core: nothing to protect")
	}
	if _, err := integrity.ParseViolationPolicy(c.ViolationPolicy); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	mode, err := integrity.ParseHashMode(c.HashMode)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	// Timing-only execution never materializes the tree (initialization is
	// skipped and records are never compared), so the functional size cap
	// only binds when digests are real.
	if c.Functional && mode != integrity.HashTiming && c.ProtectedBytes > 256<<20 {
		return fmt.Errorf("core: functional mode materializes the tree; protect at most 256 MiB (asked for %d)", c.ProtectedBytes)
	}
	if c.Benchmark.WorkingSet+c.Benchmark.CodeSet > c.ProtectedBytes {
		return fmt.Errorf("core: benchmark footprint %d exceeds protected region %d",
			c.Benchmark.WorkingSet+c.Benchmark.CodeSet, c.ProtectedBytes)
	}
	return nil
}

// verifyCacheWays resolves the dedicated verification cache's
// associativity: VerifyCacheAssoc when set, else L2Ways, clamped to the
// line count so tiny caches degrade to fully associative.
func (c *Config) verifyCacheWays() int {
	ways := c.VerifyCacheAssoc
	if ways <= 0 {
		ways = c.L2Ways
	}
	if c.VerifyCacheLines > 0 && ways > c.VerifyCacheLines {
		ways = c.VerifyCacheLines
	}
	return ways
}

// validateCacheGeometry pre-checks what cache.New would panic on.
func validateCacheGeometry(name string, size, ways, block int) error {
	if block <= 0 || block&(block-1) != 0 {
		return fmt.Errorf("core: %s block size %d not a positive power of two", name, block)
	}
	if ways <= 0 {
		return fmt.Errorf("core: %s ways must be positive, got %d", name, ways)
	}
	if size <= 0 || size%(ways*block) != 0 {
		return fmt.Errorf("core: %s size %d not a positive multiple of ways*block (%d)", name, size, ways*block)
	}
	nsets := size / (ways * block)
	if nsets&(nsets-1) != 0 {
		return fmt.Errorf("core: %s set count %d not a power of two", name, nsets)
	}
	return nil
}

// Table1 renders the architectural parameters the way the paper's Table 1
// reports them.
func (c *Config) Table1() string {
	t := stats.NewTable("Table 1: Architectural parameters used in simulations",
		"Architectural parameters", "Specifications")
	add := func(k, v string) { t.AddRow(k, v) }
	add("Clock frequency", "1 GHz")
	add("L1 I-cache", fmt.Sprintf("%dKB, %d-way, %dB line", c.L1Size>>10, c.L1Ways, c.L1Block))
	add("L1 D-cache", fmt.Sprintf("%dKB, %d-way, %dB line", c.L1Size>>10, c.L1Ways, c.L1Block))
	add("L2 cache", fmt.Sprintf("Unified, %dMB, %d-way, %dB line", c.L2Size>>20, c.L2Ways, c.L2Block))
	add("L1 latency", fmt.Sprintf("%d cycle", c.L1Latency))
	add("L2 latency", fmt.Sprintf("%d cycles", c.L2Latency))
	add("Memory latency (first chunk)", fmt.Sprintf("%d cycles", c.MemLatency))
	add("I/D TLBs", fmt.Sprintf("%d-way, %d-entries", c.TLB.Ways, c.TLB.Entries))
	add("Memory bus", fmt.Sprintf("%d MHz, %d-B wide (%.1f GB/s)",
		1000/int(c.BusCyclesPerBeat), c.BusBeatBytes,
		float64(c.BusBeatBytes)/float64(c.BusCyclesPerBeat)))
	add("Fetch/decode width", fmt.Sprintf("%d / %d per cycle", c.CPU.FetchWidth, c.CPU.FetchWidth))
	add("Issue/commit width", fmt.Sprintf("%d / %d per cycle", c.CPU.IssueWidth, c.CPU.CommitWidth))
	add("Load/store queue size", fmt.Sprintf("%d", c.CPU.LSQSize))
	add("Register update unit size", fmt.Sprintf("%d", c.CPU.RUUSize))
	add("Hash latency", fmt.Sprintf("%d cycles", c.HashLatency))
	add("Hash throughput", fmt.Sprintf("%.1f GB/s", c.HashBytesPerCycle))
	add("Hash read/write buffer", fmt.Sprintf("%d", c.HashBuffers))
	add("Hash length", fmt.Sprintf("%d bits", c.HashSize*8))
	return t.String()
}
