package core

import (
	"fmt"

	"memverify/internal/bus"
	"memverify/internal/cache"
	"memverify/internal/cpu"
	"memverify/internal/hashalg"
	"memverify/internal/integrity"
	"memverify/internal/prefetch"
	"memverify/internal/trace"
)

// Metrics is everything one simulation reports; the figure harness
// combines Metrics from several runs into the paper's tables.
type Metrics struct {
	Scheme    Scheme
	Benchmark string

	Result cpu.Result
	IPC    float64

	// L2 behaviour.
	L2Stats         cache.Stats
	DataMissRate    float64 // program-data miss rate (Figure 4)
	L2DataMisses    uint64
	L2HashAccesses  uint64
	L2HashMissRate  float64
	IntegrityStats  integrity.Stats
	ExtraPerMiss    float64 // read-path additional memory blocks per L2 miss (Figure 5a)
	ExtraPerMissAll float64 // as above but including write-back-path reads
	BusBytes        uint64  // total bus traffic (Figure 5b numerator)
	BusDataBytes    uint64
	BusHashBytes    uint64
	BusUtilization  float64
	HashOps         uint64
	HashBytesHashed uint64
	Violations      uint64
	DRAMReads       uint64
	DRAMWrites      uint64
	ITLBMissRate    float64
	DTLBMissRate    float64

	// Dedicated verification cache (zero when sharing the L2).
	VCStats    cache.Stats
	VCAccesses uint64
	VCHitRate  float64

	// Tree-ancestor prefetcher (zero when disabled).
	PrefetchStats prefetch.Stats
}

func hashFor(name string) (hashalg.Algorithm, error) { return hashalg.New(name) }

func newGenerator(cfg Config) trace.Generator {
	return trace.NewSynthetic(cfg.Benchmark, cfg.Seed)
}

// metrics assembles a Metrics from the machine's counters after a run.
func (m *Machine) metrics(res cpu.Result) Metrics {
	st := m.L2.Stat
	dataMisses := st.Misses[cache.Data] + st.WriteMiss[cache.Data]
	out := Metrics{
		Scheme:          m.Cfg.Scheme,
		Benchmark:       m.Cfg.Benchmark.Name,
		Result:          res,
		IPC:             res.IPC(),
		L2Stats:         st,
		DataMissRate:    st.MissRate(cache.Data),
		L2DataMisses:    dataMisses,
		L2HashAccesses:  st.Accesses[cache.Hash] + st.Writes[cache.Hash],
		L2HashMissRate:  st.MissRate(cache.Hash),
		IntegrityStats:  m.Sys.Stat,
		BusBytes:        m.Bus.TotalBytes(),
		BusDataBytes:    m.Bus.Bytes(bus.Data),
		BusHashBytes:    m.Bus.Bytes(bus.Hash),
		BusUtilization:  m.Bus.Utilization(res.Cycles),
		HashOps:         m.Sys.Unit.Ops(),
		HashBytesHashed: m.Sys.Unit.BytesHashed(),
		Violations:      m.Sys.Stat.Violations,
		DRAMReads:       m.DRAM.Reads(),
		DRAMWrites:      m.DRAM.Writes(),
		ITLBMissRate:    m.ITLB.Stat.MissRate(),
		DTLBMissRate:    m.DTLB.Stat.MissRate(),
	}
	if dataMisses > 0 {
		readPath := m.Sys.Stat.ExtraBlockReads - m.Sys.Stat.ExtraWriteBackReads
		out.ExtraPerMiss = float64(readPath) / float64(dataMisses)
		out.ExtraPerMissAll = float64(m.Sys.Stat.ExtraBlockReads) / float64(dataMisses)
	}
	if m.VC != nil {
		out.VCStats = m.VC.Stat
		out.VCAccesses, out.VCHitRate = vcRates(m.VC.Stat)
	}
	out.PrefetchStats = m.Sys.Prefetch.Stats()
	return out
}

// vcRates derives the dedicated verification cache's access count and hit
// rate from its stats (tree nodes are Hash-class traffic).
func vcRates(st cache.Stats) (accesses uint64, hitRate float64) {
	accesses = st.Accesses[cache.Hash] + st.Writes[cache.Hash]
	if accesses > 0 {
		misses := st.Misses[cache.Hash] + st.WriteMiss[cache.Hash]
		hitRate = 1 - float64(misses)/float64(accesses)
	}
	return accesses, hitRate
}

// Snapshot assembles Metrics from the machine's current counters without a
// CPU run — the reporting path for machines driven directly through
// LoadBytes/StoreBytes (the shard store's workers). The cycle denominator
// for rate metrics is the machine's direct-access clock; instruction-side
// fields (Result, IPC, TLB rates) stay zero because no core executed.
func (m *Machine) Snapshot() Metrics {
	return m.metrics(cpu.Result{Cycles: m.now})
}

// MergeMetrics folds per-machine Metrics into one aggregate: counters sum,
// and every derived rate is recomputed from the summed counters. The
// machines are assumed independent (per-shard buses, DRAMs and clocks), so
// aggregate cycles are total machine-cycles of work — not wall time — and
// BusUtilization is the cycle-weighted mean of the per-machine buses.
// Scheme and Benchmark are taken from the first element.
func MergeMetrics(ms ...Metrics) Metrics {
	if len(ms) == 0 {
		return Metrics{}
	}
	out := Metrics{Scheme: ms[0].Scheme, Benchmark: ms[0].Benchmark}
	var busBusy, itlbWeighted, dtlbWeighted float64
	for i := range ms {
		mt := &ms[i]
		out.Result.Instructions += mt.Result.Instructions
		out.Result.Cycles += mt.Result.Cycles
		out.Result.Loads += mt.Result.Loads
		out.Result.Stores += mt.Result.Stores
		out.Result.Branches += mt.Result.Branches
		out.Result.Mispredicts += mt.Result.Mispredicts
		for c := 0; c < len(mt.L2Stats.Accesses); c++ {
			out.L2Stats.Accesses[c] += mt.L2Stats.Accesses[c]
			out.L2Stats.Misses[c] += mt.L2Stats.Misses[c]
			out.L2Stats.Writes[c] += mt.L2Stats.Writes[c]
			out.L2Stats.WriteMiss[c] += mt.L2Stats.WriteMiss[c]
			out.L2Stats.Evictions[c] += mt.L2Stats.Evictions[c]
			out.L2Stats.WriteBacks[c] += mt.L2Stats.WriteBacks[c]
		}
		out.L2DataMisses += mt.L2DataMisses
		out.L2HashAccesses += mt.L2HashAccesses
		is, agg := &mt.IntegrityStats, &out.IntegrityStats
		agg.DemandBlockReads += is.DemandBlockReads
		agg.ExtraBlockReads += is.ExtraBlockReads
		agg.ExtraWriteBackReads += is.ExtraWriteBackReads
		agg.DataBlockWrites += is.DataBlockWrites
		agg.HashBlockWrites += is.HashBlockWrites
		agg.Checks += is.Checks
		agg.Violations += is.Violations
		agg.MACUpdates += is.MACUpdates
		agg.Evictions += is.Evictions
		agg.Retries += is.Retries
		agg.RetriesTransient += is.RetriesTransient
		agg.RetriesPersistent += is.RetriesPersistent
		for c := 0; c < len(mt.VCStats.Accesses); c++ {
			out.VCStats.Accesses[c] += mt.VCStats.Accesses[c]
			out.VCStats.Misses[c] += mt.VCStats.Misses[c]
			out.VCStats.Writes[c] += mt.VCStats.Writes[c]
			out.VCStats.WriteMiss[c] += mt.VCStats.WriteMiss[c]
			out.VCStats.Evictions[c] += mt.VCStats.Evictions[c]
			out.VCStats.WriteBacks[c] += mt.VCStats.WriteBacks[c]
		}
		ps, pagg := &mt.PrefetchStats, &out.PrefetchStats
		pagg.Observed += ps.Observed
		pagg.Predicted += ps.Predicted
		pagg.Issued += ps.Issued
		pagg.Useful += ps.Useful
		pagg.Late += ps.Late
		pagg.DroppedResident += ps.DroppedResident
		pagg.DroppedBudget += ps.DroppedBudget
		pagg.DroppedBus += ps.DroppedBus
		out.BusBytes += mt.BusBytes
		out.BusDataBytes += mt.BusDataBytes
		out.BusHashBytes += mt.BusHashBytes
		out.HashOps += mt.HashOps
		out.HashBytesHashed += mt.HashBytesHashed
		out.Violations += mt.Violations
		out.DRAMReads += mt.DRAMReads
		out.DRAMWrites += mt.DRAMWrites
		busBusy += mt.BusUtilization * float64(mt.Result.Cycles)
		itlbWeighted += mt.ITLBMissRate * float64(mt.Result.Instructions)
		dtlbWeighted += mt.DTLBMissRate * float64(mt.Result.Instructions)
	}
	out.IPC = out.Result.IPC()
	out.DataMissRate = out.L2Stats.MissRate(cache.Data)
	out.L2HashMissRate = out.L2Stats.MissRate(cache.Hash)
	if out.Result.Cycles > 0 {
		out.BusUtilization = busBusy / float64(out.Result.Cycles)
	}
	if out.Result.Instructions > 0 {
		out.ITLBMissRate = itlbWeighted / float64(out.Result.Instructions)
		out.DTLBMissRate = dtlbWeighted / float64(out.Result.Instructions)
	}
	if out.L2DataMisses > 0 {
		readPath := out.IntegrityStats.ExtraBlockReads - out.IntegrityStats.ExtraWriteBackReads
		out.ExtraPerMiss = float64(readPath) / float64(out.L2DataMisses)
		out.ExtraPerMissAll = float64(out.IntegrityStats.ExtraBlockReads) / float64(out.L2DataMisses)
	}
	out.VCAccesses, out.VCHitRate = vcRates(out.VCStats)
	return out
}

// Run builds a machine for cfg, executes it, and returns the metrics.
func Run(cfg Config) (Metrics, error) {
	m, err := NewMachine(cfg)
	if err != nil {
		return Metrics{}, err
	}
	return m.Run(), nil
}

// String gives a one-line summary for logs.
func (mt Metrics) String() string {
	return fmt.Sprintf("%s/%s: IPC %.3f, L2 data miss %.2f%%, +%.2f blk/miss, bus %.1f%% (%d hash B), violations %d",
		mt.Benchmark, mt.Scheme, mt.IPC, 100*mt.DataMissRate, mt.ExtraPerMiss,
		100*mt.BusUtilization, mt.BusHashBytes, mt.Violations)
}
