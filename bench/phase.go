package main

import (
	"cmp"
	"runtime"
	"slices"
	"time"

	"memverify/internal/telemetry"
)

// simCounters are the simulated-clock and persistence counts the count
// metrics are made of, read from a registry fill of any boundary.
type simCounters struct {
	cycles, l2Accesses, l2Misses, extraReads, checks   uint64
	hashOps, hashBytes, dramReads, dramWrites, busBusy uint64
	persistBytes, checkpoints, rejected                uint64
}

func counters(t target) simCounters {
	reg := telemetry.NewRegistry()
	t.fill(reg)
	return simCounters{
		cycles:       reg.Counter("cpu.cycles"),
		l2Accesses:   reg.Counter("l2.data_accesses"),
		l2Misses:     reg.Counter("l2.data_misses"),
		extraReads:   reg.Counter("integrity.extra_block_reads"),
		checks:       reg.Counter("integrity.checks"),
		hashOps:      reg.Counter("hash.ops"),
		hashBytes:    reg.Counter("hash.bytes"),
		dramReads:    reg.Counter("dram.reads"),
		dramWrites:   reg.Counter("dram.writes"),
		busBusy:      reg.Counter("bus.busy_cycles"),
		persistBytes: reg.Counter("persist.bytes_written"),
		checkpoints:  reg.Counter("persist.checkpoints"),
		rejected:     reg.Counter("service.rejected"),
	}
}

func (a simCounters) sub(b simCounters) simCounters {
	return simCounters{
		cycles: a.cycles - b.cycles, l2Accesses: a.l2Accesses - b.l2Accesses, l2Misses: a.l2Misses - b.l2Misses,
		extraReads: a.extraReads - b.extraReads, checks: a.checks - b.checks,
		hashOps: a.hashOps - b.hashOps, hashBytes: a.hashBytes - b.hashBytes,
		dramReads: a.dramReads - b.dramReads, dramWrites: a.dramWrites - b.dramWrites, busBusy: a.busBusy - b.busBusy,
		persistBytes: a.persistBytes - b.persistBytes, checkpoints: a.checkpoints - b.checkpoints,
		rejected: a.rejected - b.rejected,
	}
}

// prepared is a boundary with its span preloaded and verified, and its
// counters snapshotted where the count window opens: before the warm-up.
type prepared struct {
	d    *driver
	open simCounters
}

// prepare does the set-up steps every boundary shares, up to the warm-up:
// seeded preload of the whole span, then verification.
func prepare(t target, wl *workload, p params, seed uint64, latCap int) prepared {
	d := newDriver(wl, p, seed, t.stripe(), latCap)
	d.bind(t)
	d.preload()
	d.workers[0].check(t.verify())
	return prepared{d: d, open: counters(t)}
}

// windowOps is the number of ops in the count window: warm-up plus the
// first countSlices slices.
func windowOps(wl *workload, p params) float64 {
	return float64(p.workers * wl.batchOps * (wl.warmBatches + wl.countSlices*wl.sliceBatches))
}

// bestShare selects what the timed metrics but setup_s and batch_p99_us are
// read from: the best tenth of the run's samples (the calm tenth of the
// slices; the fastest tenth of the checkpoints and of the recoveries).
// Interference from the host's other tenants only ever slows the program,
// comes in bursts of seconds and at times covers most of a run; what it
// missed measures the program. README.md has the spreads of this and of the
// median.
const bestShare = 0.10

// best is the value a tenth of the way into durations sorted fastest first.
func best(durations []float64) float64 { return quantile(durations, bestShare) }

// sliceStat is one measured slice.
type sliceStat struct {
	wall  time.Duration
	marks []int // where the slice's samples start in each worker's buffer
}

// measured is what the time-budgeted phase of any workload yields. The
// allocation, GC and CPU figures are summed over the slices alone, so the
// checkpoints and probes at the barriers do not count towards them.
type measured struct {
	slices   []sliceStat
	sliceOps float64
	wall     time.Duration // spent inside slices
	alloc    uint64        // bytes allocated
	mallocs  uint64        // objects allocated
	gcs      uint32        // GC cycles
	cpu      time.Duration // process CPU time
	liveHeap uint64        // HeapAlloc after two GCs at the end of the phase
}

// measure repeats slice until the budget is spent inside slices, with a
// floor and a ceiling on the slice count. lat returns every worker's samples
// so far. barrier runs between slices, off the slices' clock and off the
// budget, with the number of slices done: checkpoints, recovery probes,
// repeated set-ups and counter snapshots happen there, spread over the
// whole phase.
func measure(wl *workload, p params, seconds float64, sliceOps float64, slice func(), lat func() [][]uint32, barrier func(n int, spent time.Duration)) measured {
	m := measured{sliceOps: sliceOps}
	budget := time.Duration(seconds * float64(time.Second))
	limit := max(wl.countSlices, int(seconds*float64(p.maxSlices)))
	runtime.GC()
	var m0, m1 runtime.MemStats
	for n := 0; n < wl.countSlices || (m.wall < budget && n < limit); n++ {
		st := sliceStat{}
		for _, l := range lat() {
			st.marks = append(st.marks, len(l))
		}
		runtime.ReadMemStats(&m0)
		cpu0 := cpuTime()
		t := time.Now()
		slice()
		st.wall = time.Since(t)
		m.cpu += cpuTime() - cpu0
		runtime.ReadMemStats(&m1)
		m.alloc += m1.TotalAlloc - m0.TotalAlloc
		m.mallocs += m1.Mallocs - m0.Mallocs
		m.gcs += m1.NumGC - m0.NumGC
		m.slices = append(m.slices, st)
		m.wall += st.wall
		barrier(n+1, m.wall)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	m.liveHeap = m1.HeapAlloc
	return m
}

// latCap is the per-worker sample buffer: every slice the ceiling allows.
func latCap(wl *workload, p params, seconds float64) int {
	return wl.sliceBatches * max(wl.countSlices, int(seconds*float64(p.maxSlices)))
}

// calm returns the indices of the best tenth of the slices by throughput,
// three at least.
func (m *measured) calm() []int {
	order := make([]int, len(m.slices))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(m.slices[a].wall, m.slices[b].wall) })
	return order[:min(max(3, int(bestShare*float64(len(order)))), len(order))]
}

// samples returns the batch times of slice i, every worker's.
func (m *measured) samples(lat [][]uint32, i int) []uint32 {
	var out []uint32
	for w, l := range lat {
		end := len(l)
		if i+1 < len(m.slices) {
			end = m.slices[i+1].marks[w]
		}
		out = append(out, l[m.slices[i].marks[w]:end]...)
	}
	return out
}

// report fills the numbers every workload derives the same way from the
// measured phase. Throughput and the median batch time come from the calm
// slices. batch_p99_us is the one timed metric that does not: it is the
// median over all slices of the slice's own p99, so that a tail or a stall
// that most slices have is seen even though the calm ones escape it.
// Allocation is summed over all slices.
func (m *measured) report(r *report, lat [][]uint32) {
	var calmWall time.Duration
	var calm, all []uint32
	picked := m.calm()
	for _, i := range picked {
		calmWall += m.slices[i].wall
		calm = append(calm, m.samples(lat, i)...)
	}
	rates, p99s := make([]float64, len(m.slices)), make([]float64, len(m.slices))
	for i, st := range m.slices {
		s := m.samples(lat, i)
		rates[i], p99s[i] = m.sliceOps/st.wall.Seconds(), quantile(s, 0.99)/us
		all = append(all, s...)
	}
	slices.Sort(calm)
	slices.Sort(all)
	n := len(picked)
	ops := m.sliceOps * float64(len(m.slices))
	r.set("ops_per_s", m.sliceOps*float64(n)/calmWall.Seconds())
	r.set("batch_p50_us", sortedQuantile(calm, 0.50)/us)
	r.set("batch_p99_us", median(p99s))
	r.set("alloc_bytes_per_op", float64(m.alloc)/ops)
	r.set("live_heap_mib", float64(m.liveHeap)/(1<<20))

	r.set("client.batch_p999_us", sortedQuantile(all, 0.999)/us)
	r.set("client.batch_max_us", sortedQuantile(all, 1)/us)
	r.set("host.peak_rss_mib", peakRSSMiB())
	r.set("host.cpu_us_per_op", float64(m.cpu)/us/ops)
	r.set("host.mallocs_per_op", float64(m.mallocs)/ops)
	r.set("host.gc_cycles", float64(m.gcs))
	r.set("host.slice_spread", ratio(quantile(rates, 1)-quantile(rates, 0), median(rates)))
	r.info("slices", "%d of %.0f ops in %.2f s; ops/s min %.0f median %.0f max %.0f; the calm %d give ops_per_s and batch_p50_us",
		len(rates), m.sliceOps, m.wall.Seconds(), quantile(rates, 0), median(rates), quantile(rates, 1), n)
	r.info("batch_times", "%d samples, p50 %.1f us, p99 %.1f us over all; %d per slice, %d beyond a slice's p99; slice p99s min %.1f max %.1f us; p99 of the calm slices %.1f us",
		len(all), sortedQuantile(all, 0.50)/us, sortedQuantile(all, 0.99)/us, len(all)/len(rates), len(all)/len(rates)/100,
		quantile(p99s, 0), quantile(p99s, 1), sortedQuantile(calm, 0.99)/us)
}

// durability reports the checkpoint and recovery times of a run.
func durability(r *report, ckpts, recs []float64) {
	r.set("ckpt_ms", best(ckpts))
	r.set("recovery_ms", best(recs))
	r.info("checkpoints", "%d, median %.1f ms, slowest %.1f ms", len(ckpts), median(ckpts), quantile(ckpts, 1))
	r.info("recoveries", "%d, median %.1f ms, slowest %.1f ms", len(recs), median(recs), quantile(recs, 1))
}
