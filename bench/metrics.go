package main

import (
	"math"
	"slices"
	"sort"
)

// metric declares one reported number. The lists below are what
// BENCHMARK.json registers; TestBenchmarkJSONMatches keeps the two equal.
type metric struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the system sees. Every workload reports all of
// them. The wall-clock bounds are the contract's maximum, because the
// reference box's noise asks for no less; the allocation and count bounds
// are three times their measured spread across ten seeds, rounded up
// (README.md has the tables).
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"batch_p50_us", "us", "lower", 0.25},
	{"batch_p99_us", "us", "lower", 0.25},
	{"alloc_bytes_per_op", "B", "lower", 0.02},
	{"live_heap_mib", "MiB", "lower", 0.05},
	{"ckpt_ms", "ms", "lower", 0.25},
	{"recovery_ms", "ms", "lower", 0.25},
	{"write_amp", "ratio", "lower", 0.02},
	{"sim_cycles_per_op", "cycles", "lower", 0.02},
	{"sim_overhead_x", "ratio", "lower", 0.02},
	{"extra_reads_per_miss", "blocks", "lower", 0.02},
}

// perLayer is what the traced run reports: one group per module, named
// after it. A metric that does not exist on a workload (the service layers
// on sim-paper) reads 0 there.
var perLayer = []metric{
	{name: "client.wait_us", unit: "us", better: "lower"},
	{name: "client.self_us", unit: "us", better: "lower"},
	{name: "client.null_rtt_us", unit: "us", better: "lower"},
	{name: "client.encode_req_ns_per_op", unit: "ns", better: "lower"},
	{name: "client.decode_resp_ns_per_op", unit: "ns", better: "lower"},
	{name: "client.allocs_per_batch", unit: "count", better: "lower"},
	{name: "client.batch_p999_us", unit: "us", better: "lower"},
	{name: "client.batch_max_us", unit: "us", better: "lower"},

	{name: "service.serve_us", unit: "us", better: "lower"},
	{name: "service.self_us", unit: "us", better: "lower"},
	{name: "service.handler_direct_us", unit: "us", better: "lower"},
	{name: "service.decode_req_ns_per_op", unit: "ns", better: "lower"},
	{name: "service.encode_resp_ns_per_op", unit: "ns", better: "lower"},
	{name: "service.allocs_per_batch", unit: "count", better: "lower"},
	{name: "service.rejected", unit: "count", better: "lower"},

	{name: "shard.batch_us", unit: "us", better: "lower"},
	{name: "shard.self_us", unit: "us", better: "lower"},
	{name: "shard.idle_roundtrip_us", unit: "us", better: "lower"},
	{name: "shard.barrier_us", unit: "us", better: "lower"},

	{name: "core.batch_us", unit: "us", better: "lower"},
	{name: "core.self_us", unit: "us", better: "lower"},
	{name: "core.load_ns_per_byte", unit: "ns", better: "lower"},
	{name: "core.store_ns_per_byte", unit: "ns", better: "lower"},
	{name: "core.fullblock_store_ns", unit: "ns", better: "lower"},
	{name: "core.l2_accesses_per_op", unit: "count", better: "lower"},
	{name: "core.l2_miss_rate", unit: "ratio", better: "lower"},

	{name: "integrity.self_us", unit: "us", better: "lower"},
	{name: "integrity.checks_per_op", unit: "count", better: "lower"},
	{name: "integrity.extra_reads_per_miss", unit: "blocks", better: "lower"},
	{name: "integrity.cold_read_us.naive", unit: "us", better: "lower"},
	{name: "integrity.cold_read_us.c", unit: "us", better: "lower"},
	{name: "integrity.cold_read_us.m", unit: "us", better: "lower"},
	{name: "integrity.cold_read_us.i", unit: "us", better: "lower"},

	{name: "hashalg.ns_per_chunk.fnv128", unit: "ns", better: "lower"},
	{name: "hashalg.ns_per_chunk.md5", unit: "ns", better: "lower"},
	{name: "hashalg.ns_per_chunk.sha1", unit: "ns", better: "lower"},
	{name: "hashalg.ops_per_op", unit: "count", better: "lower"},
	{name: "hashalg.bytes_per_op", unit: "B", better: "lower"},
	{name: "hashalg.time_share", unit: "ratio", better: "lower"},

	{name: "cache.read_hit_ns", unit: "ns", better: "lower"},
	{name: "cache.fill_evict_ns", unit: "ns", better: "lower"},
	{name: "mem.read_block_ns", unit: "ns", better: "lower"},
	{name: "mem.write_block_ns", unit: "ns", better: "lower"},

	{name: "bus.utilization", unit: "ratio", better: "lower"},
	{name: "dram.reads_per_op", unit: "count", better: "lower"},
	{name: "dram.writes_per_op", unit: "count", better: "lower"},

	{name: "persist.ckpt_ms", unit: "ms", better: "lower"},
	{name: "persist.ckpt_max_ms", unit: "ms", better: "lower"},
	{name: "persist.bytes_per_ckpt", unit: "B", better: "lower"},
	{name: "persist.ckpt_stall_frac", unit: "ratio", better: "lower"},
	{name: "persist.save_state_ms", unit: "ms", better: "lower"},
	{name: "persist.restore_state_ms", unit: "ms", better: "lower"},
	{name: "persist.recover_ms", unit: "ms", better: "lower"},

	{name: "cpu.sim_instr_per_s.base", unit: "1/s", better: "higher"},
	{name: "cpu.sim_instr_per_s.naive", unit: "1/s", better: "higher"},
	{name: "cpu.sim_instr_per_s.c", unit: "1/s", better: "higher"},
	{name: "cpu.sim_instr_per_s.m", unit: "1/s", better: "higher"},
	{name: "cpu.sim_instr_per_s.i", unit: "1/s", better: "higher"},
	{name: "trace.next_ns", unit: "ns", better: "lower"},
	{name: "sweep.parallel_eff", unit: "ratio", better: "higher"},
	{name: "sim.ipc_ratio.naive", unit: "ratio", better: "higher"},
	{name: "sim.ipc_ratio.c", unit: "ratio", better: "higher"},
	{name: "sim.ipc_ratio.m", unit: "ratio", better: "higher"},
	{name: "sim.ipc_ratio.i", unit: "ratio", better: "higher"},

	{name: "telemetry.fill_us", unit: "us", better: "lower"},
	{name: "obs.sampler_round_us", unit: "us", better: "lower"},

	{name: "host.peak_rss_mib", unit: "MiB", better: "lower"},
	{name: "host.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "host.mallocs_per_op", unit: "count", better: "lower"},
	{name: "host.gc_cycles", unit: "count", better: "lower"},
	{name: "host.slice_spread", unit: "ratio", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

// countMetrics repeat exactly for a seed: they are counts made by the
// simulated machines and the persistence layer, not times.
var countMetrics = []string{"write_amp", "sim_cycles_per_op", "sim_overhead_x", "extra_reads_per_miss"}

func isCount(name string) bool { return slices.Contains(countMetrics, name) }

// quantile returns the q-quantile of xs by nearest rank on a sorted copy.
func quantile[T uint32 | float64](xs []T, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return sortedQuantile(s, q)
}

func sortedQuantile[T uint32 | float64](s []T, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(0, min(i, len(s)-1))])
}

// median is the mean of the two middle values for an even count, so the
// median of a handful of readings does not jump with parity.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles cuts xs as Python's statistics.quantiles(xs, n=4) does, which
// is how the benchmark's driver measures spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = max(1, min(j, n-1))
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const us = 1e3 // ns per µs
const ms = 1e6 // ns per ms
