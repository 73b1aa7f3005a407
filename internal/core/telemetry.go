package core

import (
	"memverify/internal/cache"
	"memverify/internal/telemetry"
)

// FillRegistry snapshots the machine's per-component counters, residency
// gauges, latency histograms and bus occupancy windows into reg — the
// -metrics output of a single simulation. mt is the Metrics the run
// returned (the registry reuses its derived rates instead of recomputing
// them). Counter names are stable: they are part of the
// memverify-metrics-v1 schema.
func (m *Machine) FillRegistry(reg *telemetry.Registry, mt *Metrics) {
	reg.Add("cpu.instructions", mt.Result.Instructions)
	reg.Add("cpu.cycles", mt.Result.Cycles)
	reg.Add("cpu.loads", mt.Result.Loads)
	reg.Add("cpu.stores", mt.Result.Stores)

	st := &mt.L2Stats
	reg.Add("l2.data_accesses", st.Accesses[cache.Data]+st.Writes[cache.Data])
	reg.Add("l2.data_misses", mt.L2DataMisses)
	reg.Add("l2.hash_accesses", mt.L2HashAccesses)
	reg.Add("l2.hash_misses", st.Misses[cache.Hash]+st.WriteMiss[cache.Hash])
	reg.Add("l2.evictions", st.Evictions[cache.Data]+st.Evictions[cache.Hash])
	reg.Add("l2.writebacks", st.WriteBacks[cache.Data]+st.WriteBacks[cache.Hash])

	is := &mt.IntegrityStats
	reg.Add("integrity.demand_block_reads", is.DemandBlockReads)
	reg.Add("integrity.extra_block_reads", is.ExtraBlockReads)
	reg.Add("integrity.extra_writeback_reads", is.ExtraWriteBackReads)
	reg.Add("integrity.checks", is.Checks)
	reg.Add("integrity.violations", is.Violations)
	reg.Add("integrity.evictions", is.Evictions)
	reg.Add("integrity.mac_updates", is.MACUpdates)

	reg.Add("bus.data_bytes", mt.BusDataBytes)
	reg.Add("bus.hash_bytes", mt.BusHashBytes)
	reg.Add("bus.busy_cycles", m.Bus.BusyCycles())
	reg.Add("hash.ops", mt.HashOps)
	reg.Add("hash.bytes", mt.HashBytesHashed)
	reg.Add("hash.buffer_waits", m.Sys.Unit.ReadBuf.Waits()+m.Sys.Unit.WriteBuf.Waits())
	reg.Add("dram.reads", mt.DRAMReads)
	reg.Add("dram.writes", mt.DRAMWrites)

	reg.SetGauge("cpu.ipc", mt.IPC)
	reg.SetGauge("l2.data_miss_rate", mt.DataMissRate)
	reg.SetGauge("l2.hash_miss_rate", mt.L2HashMissRate)
	reg.SetGauge("bus.utilization", mt.BusUtilization)
	reg.SetGauge("integrity.extra_per_miss", mt.ExtraPerMiss)

	// Tree-node cache residency: what fraction of the L2 the hash tree
	// occupies right now (§6.4.1's cache-pollution axis).
	// Residency is a level, not an accumulation — exported as gauges so a
	// live scrape of a store (which re-fills a fresh registry every sample)
	// never shows a "counter" moving backwards as lines are evicted.
	totalLines := m.Cfg.L2Size / m.Cfg.L2Block
	reg.SetGauge("l2.resident_lines_data", float64(m.L2.ResidentLinesClass(cache.Data)))
	reg.SetGauge("l2.resident_lines_hash", float64(m.L2.ResidentLinesClass(cache.Hash)))
	if totalLines > 0 {
		reg.SetGauge("l2.hash_residency",
			float64(m.L2.ResidentLinesClass(cache.Hash))/float64(totalLines))
	}

	// Dedicated verification cache: counters plus hit-rate and residency
	// gauges (all absent-as-zero when sharing the L2).
	if m.VC != nil {
		vs := &mt.VCStats
		reg.Add("vc.accesses", mt.VCAccesses)
		reg.Add("vc.misses", vs.Misses[cache.Hash]+vs.WriteMiss[cache.Hash])
		reg.Add("vc.evictions", vs.Evictions[cache.Hash])
		reg.Add("vc.writebacks", vs.WriteBacks[cache.Hash])
		reg.SetGauge("vc.resident_lines", float64(m.VC.ResidentLinesClass(cache.Hash)))
		reg.SetGauge("vc.hit_rate", mt.VCHitRate)
		if m.Cfg.VerifyCacheLines > 0 {
			reg.SetGauge("vc.occupancy",
				float64(m.VC.ResidentLinesClass(cache.Hash))/float64(m.Cfg.VerifyCacheLines))
		}
	}

	// Tree-ancestor prefetcher decisions (all zero when disabled).
	ps := &mt.PrefetchStats
	reg.Add("prefetch.observed", ps.Observed)
	reg.Add("prefetch.predicted", ps.Predicted)
	reg.Add("prefetch.issued", ps.Issued)
	reg.Add("prefetch.useful", ps.Useful)
	reg.Add("prefetch.late", ps.Late)
	reg.Add("prefetch.dropped_resident", ps.DroppedResident)
	reg.Add("prefetch.dropped_budget", ps.DroppedBudget)
	reg.Add("prefetch.dropped_bus", ps.DroppedBus)
	if ps.Issued > 0 {
		reg.SetGauge("prefetch.accuracy", float64(ps.Useful)/float64(ps.Issued))
	}

	if h := m.Sys.PathExtras; h != nil {
		reg.MergeHistogram("integrity.path_extras", h)
	}
	if w := m.Bus.WindowCycles(); w > 0 {
		reg.Add("bus.window_cycles", w)
		reg.AppendSeries("bus.busy_cycles_per_window", m.Bus.Windows()...)
	}
	m.Cfg.Telemetry.FillRegistry(reg)
}

// AccumulateMetrics folds a completed run's Metrics into reg — the
// aggregation path for figure sweeps, which only hold Metrics (the
// machines are gone by the time the registry is written). Probe
// histograms and bus windows come from the sweep's shared Recorder via
// Recorder.FillRegistry.
func AccumulateMetrics(reg *telemetry.Registry, mt *Metrics) {
	reg.Add("cpu.instructions", mt.Result.Instructions)
	reg.Add("cpu.cycles", mt.Result.Cycles)
	st := &mt.L2Stats
	reg.Add("l2.data_accesses", st.Accesses[cache.Data]+st.Writes[cache.Data])
	reg.Add("l2.data_misses", mt.L2DataMisses)
	reg.Add("l2.hash_accesses", mt.L2HashAccesses)
	is := &mt.IntegrityStats
	reg.Add("integrity.demand_block_reads", is.DemandBlockReads)
	reg.Add("integrity.extra_block_reads", is.ExtraBlockReads)
	reg.Add("integrity.checks", is.Checks)
	reg.Add("integrity.violations", is.Violations)
	reg.Add("bus.data_bytes", mt.BusDataBytes)
	reg.Add("bus.hash_bytes", mt.BusHashBytes)
	reg.Add("hash.ops", mt.HashOps)
	reg.Add("dram.reads", mt.DRAMReads)
	reg.Add("dram.writes", mt.DRAMWrites)
	reg.Add("vc.accesses", mt.VCAccesses)
	reg.Add("prefetch.issued", mt.PrefetchStats.Issued)
	reg.Add("prefetch.useful", mt.PrefetchStats.Useful)
	reg.Add("sweep.points", 1)
}
