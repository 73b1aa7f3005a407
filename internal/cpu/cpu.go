// Package cpu is the trace-driven superscalar timing model standing in
// for SimpleScalar's out-of-order simulator. It is a timestamp dataflow
// model: each dynamic instruction's fetch, issue and commit cycles are
// derived from its producers' completion times under the machine's
// structural constraints — fetch and commit bandwidth, a finite register
// update unit (RUU) window, a finite load/store queue, and branch
// misprediction refetch. Loads take their latency from the memory
// hierarchy at their issue cycle, so cache misses, bus contention and
// hash-unit back-pressure all flow into IPC.
//
// Deliberate simplifications versus sim-outorder (documented in
// DESIGN.md): there is no MSHR cap beyond bus serialization and no
// speculative wrong-path memory traffic. Neither affects the *relative*
// IPC of the verification schemes, which is what the paper's figures
// report.
package cpu

import "memverify/internal/trace"

// Config sets the core's widths, window sizes and latencies (Table 1).
type Config struct {
	FetchWidth        int    // instructions fetched per cycle
	IssueWidth        int    // instructions entering execution per cycle (0 = unbounded)
	CommitWidth       int    // instructions committed per cycle
	RUUSize           int    // register update unit (instruction window)
	LSQSize           int    // load/store queue entries
	DecodeDepth       uint64 // front-end pipeline stages between fetch and issue
	MispredictPenalty uint64 // refetch penalty after a mispredicted branch
	MulLatency        uint64
	FPLatency         uint64
	CryptoLatency     uint64 // on-chip signing latency for OpCrypto barriers
}

// DefaultConfig returns the paper's core: 4-wide, RUU 128, LSQ 64.
func DefaultConfig() Config {
	return Config{
		FetchWidth:        4,
		IssueWidth:        4,
		CommitWidth:       4,
		RUUSize:           128,
		LSQSize:           64,
		DecodeDepth:       2,
		MispredictPenalty: 3,
		MulLatency:        3,
		FPLatency:         4,
		CryptoLatency:     100,
	}
}

// MemPort is the memory hierarchy as the core sees it. Each call returns
// the cycle at which the access completes. Fetch is an instruction fetch
// (L1 I-cache), Load a data read, and Store a committed store entering
// the hierarchy.
type MemPort interface {
	Fetch(now uint64, pc uint64) uint64
	Load(now uint64, addr uint64) uint64
	Store(now uint64, addr uint64) uint64
}

// BarrierPort is optionally implemented by hierarchies that run integrity
// checks in the background. Barrier returns the cycle by which every check
// issued so far has completed — the §5.8 requirement that cryptographic
// instructions not expose results before preceding checks pass.
type BarrierPort interface {
	Barrier(now uint64) uint64
}

// Result summarizes a run.
type Result struct {
	Instructions uint64
	Cycles       uint64
	Loads        uint64
	Stores       uint64
	Branches     uint64
	Mispredicts  uint64
}

// IPC returns committed instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// CPU is a single simulated core. It is not safe for concurrent use.
type CPU struct {
	cfg Config
	mem MemPort

	// The rings' sizes are powers of two, so an index is masked with
	// size−1 rather than reduced modulo the size.
	ringMask  uint64
	done      []uint64 // result-ready cycle per instruction (ring)
	commit    []uint64 // commit cycle per instruction (ring)
	fetch     []uint64 // fetch cycle per instruction (ring)
	lsqMask   uint64
	memCommit []uint64 // commit cycle per memory op (ring)

	// Issue-bandwidth regulator: slots consumed per cycle over a sliding
	// window.
	issueCycle []uint64
	issueUsed  []uint16

	// Persistent machine state across Run calls, so a warm-up run can be
	// followed by a measured run without resetting the pipeline clock.
	count     uint64 // dynamic instructions processed so far
	nMem      uint64 // memory operations processed so far
	refetchAt uint64 // front-end squash point from the last misprediction
	fetchDone uint64 // completion of the most recent fetch (I-miss stall)
}

// New builds a core over the given memory hierarchy.
func New(cfg Config, mem MemPort) *CPU {
	if cfg.FetchWidth <= 0 || cfg.CommitWidth <= 0 || cfg.RUUSize <= 0 || cfg.LSQSize <= 0 {
		panic("cpu: widths and window sizes must be positive")
	}
	ring := nextPow2(uint64(2 * cfg.RUUSize))
	if ring < 128 {
		ring = 128
	}
	lsqRing := nextPow2(uint64(2 * cfg.LSQSize))
	return &CPU{
		cfg:        cfg,
		mem:        mem,
		ringMask:   ring - 1,
		done:       make([]uint64, ring),
		commit:     make([]uint64, ring),
		fetch:      make([]uint64, ring),
		lsqMask:    lsqRing - 1,
		memCommit:  make([]uint64, lsqRing),
		issueCycle: make([]uint64, issueWindow),
		issueUsed:  make([]uint16, issueWindow),
	}
}

// issueWindow bounds how far ahead issue slots are tracked; it only needs
// to exceed the largest plausible burst of same-cycle ready instructions.
const issueWindow = 1 << 14

// issueSlot returns the first cycle at or after ready with spare issue
// bandwidth, and consumes one slot there.
func (c *CPU) issueSlot(ready uint64) uint64 {
	w := c.cfg.IssueWidth
	if w <= 0 {
		return ready
	}
	for cyc := ready; ; cyc++ {
		i := cyc & (issueWindow - 1)
		if c.issueCycle[i] != cyc {
			c.issueCycle[i] = cyc
			c.issueUsed[i] = 0
		}
		if int(c.issueUsed[i]) < w {
			c.issueUsed[i]++
			return cyc
		}
	}
}

func nextPow2(v uint64) uint64 {
	n := uint64(1)
	for n < v {
		n <<= 1
	}
	return n
}

// Run executes n instructions from gen and returns the timing result for
// this increment. Run may be called repeatedly; pipeline state, the cycle
// clock and window occupancy persist, so the second call measures
// steady-state behaviour over a warm machine.
func (c *CPU) Run(gen trace.Generator, n uint64) Result {
	var (
		res Result
		ins trace.Instruction
	)
	cfg := &c.cfg
	fw := uint64(cfg.FetchWidth)
	cw := uint64(cfg.CommitWidth)
	ruu := uint64(cfg.RUUSize)
	lsq := uint64(cfg.LSQSize)

	var startCycle uint64
	if c.count > 0 {
		startCycle = c.commit[(c.count-1)&c.ringMask]
	}
	end := c.count + n
	for ; c.count < end; c.count++ {
		i := c.count
		gen.Next(&ins)

		// Fetch: the issue slot is bounded by fetch bandwidth, the RUU
		// window (a slot frees when instruction i-RUU commits), any
		// pending refetch after a mispredicted branch, and the in-order
		// front end draining the previous fetch (an I-cache miss stalls
		// fetch; a pipelined hit does not).
		ft := c.refetchAt
		if i >= fw {
			if t := c.fetch[(i-fw)&c.ringMask] + 1; t > ft {
				ft = t
			}
		}
		if i >= ruu {
			if t := c.commit[(i-ruu)&c.ringMask]; t > ft {
				ft = t
			}
		}
		if c.fetchDone > 0 && c.fetchDone-1 > ft {
			ft = c.fetchDone - 1
		}
		c.fetch[i&c.ringMask] = ft
		fd := c.mem.Fetch(ft, ins.PC)
		c.fetchDone = fd

		// Issue: after decode, once producers have completed and — for
		// memory ops — an LSQ entry is free.
		ready := fd + cfg.DecodeDepth
		if ins.Dep1 != 0 && uint64(ins.Dep1) <= i {
			if t := c.done[(i-uint64(ins.Dep1))&c.ringMask]; t > ready {
				ready = t
			}
		}
		if ins.Dep2 != 0 && uint64(ins.Dep2) <= i {
			if t := c.done[(i-uint64(ins.Dep2))&c.ringMask]; t > ready {
				ready = t
			}
		}

		var dn uint64
		isMem := ins.Op == trace.OpLoad || ins.Op == trace.OpStore
		if isMem && c.nMem >= lsq {
			if t := c.memCommit[(c.nMem-lsq)&c.lsqMask]; t > ready {
				ready = t
			}
		}
		ready = c.issueSlot(ready)
		switch ins.Op {
		case trace.OpLoad:
			dn = c.mem.Load(ready, ins.Addr)
			res.Loads++
		case trace.OpStore:
			// The store's address/data are ready; the memory write
			// happens at commit from the store buffer.
			dn = ready + 1
			res.Stores++
		case trace.OpMul:
			dn = ready + cfg.MulLatency
		case trace.OpFP:
			dn = ready + cfg.FPLatency
		case trace.OpBranch:
			dn = ready + 1
			res.Branches++
		case trace.OpCrypto:
			// §5.8: the signature must not leave the chip before every
			// preceding check has completed — crypto ops are barriers.
			dn = ready
			if bp, ok := c.mem.(BarrierPort); ok {
				dn = bp.Barrier(ready)
			}
			dn += cfg.CryptoLatency
		default:
			dn = ready + 1
		}
		c.done[i&c.ringMask] = dn

		// Commit: in order, bounded by commit bandwidth.
		ct := dn
		if i > 0 {
			if t := c.commit[(i-1)&c.ringMask]; t > ct {
				ct = t
			}
		}
		if i >= cw {
			if t := c.commit[(i-cw)&c.ringMask] + 1; t > ct {
				ct = t
			}
		}
		c.commit[i&c.ringMask] = ct

		if isMem {
			c.memCommit[c.nMem&c.lsqMask] = ct
			c.nMem++
			if ins.Op == trace.OpStore {
				c.mem.Store(ct, ins.Addr)
			}
		}
		if ins.Op == trace.OpBranch && ins.Mispredict {
			res.Mispredicts++
			if t := dn + cfg.MispredictPenalty; t > c.refetchAt {
				c.refetchAt = t
			}
		}
	}
	res.Instructions = n
	if n > 0 {
		res.Cycles = c.commit[(end-1)&c.ringMask] - startCycle
	}
	return res
}
