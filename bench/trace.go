package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memverify/internal/core"
	"memverify/internal/obs"
	"memverify/internal/service"
	"memverify/internal/shard"
	"memverify/internal/telemetry"
)

// The traced run gives the per-layer numbers. It records two spans per
// batch from outside the program — client.wait around Batch.Wait and
// service.serve around the service's handler, joined by (worker, batch
// number) — and then replays the identical op stream one boundary lower
// each time: the shard store, bare machines, bare base-scheme machines.
// client.self_us is measured span by span (wait minus the serve it encloses);
// below the wire a layer's self time is the difference of two successive
// replays' batch times. Every serve span must lie inside the wait span it is
// joined to, which is what checks the join.

// tracer is the service.serve span recorder: an http.Handler between the
// listener and the service.
type tracer struct {
	on     atomic.Bool
	stripe uint64
	mu     sync.Mutex
	serve  [][]span // per worker, in batch order
}

func (t *tracer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || !strings.HasSuffix(r.URL.Path, "/batch") {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		body, err := io.ReadAll(r.Body)
		// A worker only ever addresses its own stripe, so the first op's
		// offset names the worker, and the worker's batches arrive in
		// order. Finding it is the recorder's work, not the service's: its
		// time is taken off the span.
		own := time.Now()
		worker := -1
		if ops, derr := service.DecodeRequest(bytes.NewReader(body), 0, 0); err == nil && derr == nil && len(ops) > 0 {
			worker = int(ops[0].Off / t.stripe)
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		overhead := time.Since(own)
		next.ServeHTTP(w, r)
		d := time.Since(start) - overhead
		t.mu.Lock()
		if worker >= 0 && worker < len(t.serve) {
			t.serve[worker] = append(t.serve[worker], span{start, d})
		}
		t.mu.Unlock()
	})
}

// nested counts the serve spans that do not lie inside the wait span of the
// same worker and batch number; a batch without its serve span counts too.
func nested(waits, serves [][]span) (bad int) {
	for w := range waits {
		for i, wt := range waits[w] {
			if i >= len(serves[w]) {
				bad++
				continue
			}
			sv := serves[w][i]
			if sv.start.Before(wt.start) || sv.start.Add(sv.dur).After(wt.start.Add(wt.dur)) {
				bad++
			}
		}
	}
	return bad
}

// sliceSpans returns each worker's spans [slice*per, (slice+1)*per).
func sliceSpans(groups [][]span, slice, per int) [][]span {
	out := make([][]span, len(groups))
	for w, g := range groups {
		out[w] = g[min(slice*per, len(g)):min((slice+1)*per, len(g))]
	}
	return out
}

// spanMedianUs is the median of f over the spans of every worker.
func spanMedianUs(groups [][]span, f func(w, i int, s span) float64) float64 {
	var ds []float64
	for w, g := range groups {
		for i, s := range g {
			ds = append(ds, f(w, i, s))
		}
	}
	return median(ds) / us
}

// traceSlices is the length of the traced phase and of every replay.
func traceSlices(seconds float64) int { return max(1, int(seconds/3)) }

func runTraced(wl *workload, p params, seed uint64, seconds float64, outDir string) (*report, error) {
	r := newReport(wl, seed, true)
	for _, m := range perLayer {
		r.set(m.name, 0)
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r.meta["persist_fs"] = fsName(dir)

	var spans []fileSpan
	if wl.sim {
		spans, err = tracedSim(r, wl, p, seed, seconds)
	} else {
		spans, err = tracedSvc(r, wl, p, seed, seconds, dir)
	}
	if err != nil {
		return nil, err
	}
	if err := probes(r, wl, p, seed); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, "trace-"+wl.name+".json")
	if err := writeSpans(path, wl, seed, spans); err != nil {
		return nil, err
	}
	r.info("trace_file", "%s (%d spans)", path, len(spans))
	return r, nil
}

// fileSpan is a span as the trace file holds it. Spans of one batch share
// worker and seq.
type fileSpan struct {
	Name    string  `json:"name"`
	Worker  int     `json:"worker"`
	Seq     int     `json:"seq"`
	StartUs float64 `json:"start_us"` // since the first span
	DurUs   float64 `json:"dur_us"`
}

const maxFileSpans = 20000

func collectSpans(name string, groups [][]span, out []fileSpan) []fileSpan {
	for w, g := range groups {
		for i, s := range g {
			out = append(out, fileSpan{Name: name, Worker: w, Seq: i, StartUs: float64(s.start.UnixNano()) / us, DurUs: float64(s.dur) / us})
		}
	}
	return out
}

func writeSpans(path string, wl *workload, seed uint64, spans []fileSpan) error {
	total := len(spans)
	if total > maxFileSpans {
		spans = spans[:maxFileSpans]
	}
	if len(spans) > 0 {
		t0 := spans[0].StartUs
		for _, s := range spans {
			t0 = min(t0, s.StartUs)
		}
		for i := range spans {
			spans[i].StartUs -= t0
		}
	}
	b, err := json.Marshal(map[string]any{"workload": wl.name, "seed": seed, "spans_recorded": total, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// level is one boundary's replay: its median batch time and its counters
// over the traced slices.
type level struct {
	batchUs float64 // median batch time of the calmest slice: the one where it is lowest
	calmest int     // that slice's index
	rate    float64 // ops/s over the slices
	c       simCounters
	mallocs uint64
	gcs     uint32
	cpu     time.Duration
	d       *driver
}

// replay prepares t as every run does and drives the traced slices
// against it. flush drains the target's dirty state; it runs at the
// barriers where the whole stack seals a checkpoint, which flushes too, so
// that every boundary sees the same ops on the same cache contents.
func replay(t target, flush func(), wl *workload, p params, seed uint64, slices int, tl *tally) level {
	pr := prepare(t, wl, p, seed, slices*wl.sliceBatches)
	pr.d.run(wl.warmBatches, false, false)
	l := drive(t, pr.d, wl, p, slices, false, func(n int) time.Duration {
		if n%wl.ckptEvery == 0 {
			flush()
		}
		return 0
	})
	tl.add(pr.d.tally())
	return l
}

// drive runs the traced slices on a prepared target. barrier runs after
// every slice with the number of slices done; the time it returns counts
// as the slice's.
func drive(t target, d *driver, wl *workload, p params, slices int, trace bool, barrier func(n int) time.Duration) level {
	c0 := counters(t)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	var wall time.Duration
	l := level{d: d}
	for i := 0; i < slices; i++ {
		wall += d.run(wl.sliceBatches, true, trace)
		wall += barrier(i + 1)
		var lat []uint32
		for _, w := range d.workers {
			lat = append(lat, w.lat[i*wl.sliceBatches:]...)
		}
		// As in the untraced run, the host's interference is sidestepped
		// by reading the time where it was lowest; the boundaries replay
		// seconds apart, and differences of their medians over all slices
		// would mostly measure how the host's mood changed in between.
		if med := quantile(lat, 0.5) / us; i == 0 || med < l.batchUs {
			l.batchUs, l.calmest = med, i
		}
	}
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	ops := float64(slices * p.workers * wl.sliceBatches * wl.batchOps)
	l.rate, l.c = ops/wall.Seconds(), counters(t).sub(c0)
	l.mallocs, l.gcs, l.cpu = m1.Mallocs-m0.Mallocs, m1.NumGC-m0.NumGC, cpu
	return l
}

func tracedSvc(r *report, wl *workload, p params, seed uint64, seconds float64, dir string) ([]fileSpan, error) {
	n := traceSlices(seconds)
	ops := float64(n * p.workers * wl.sliceBatches * wl.batchOps)
	batches := float64(n * p.workers * wl.sliceBatches)

	// The whole stack, traced.
	tr := &tracer{serve: make([][]span, p.workers)}
	cfg := svcConfig(p, dir)
	st, _, err := startStack(cfg, tr.wrap)
	if err != nil {
		return nil, err
	}
	tr.stripe = st.stripe()
	var ckptWall time.Duration
	var ckpts []float64
	barrier := func(n int) time.Duration {
		if n%wl.ckptEvery != 0 {
			return 0
		}
		d := timedCheckpoint(st, &r.tally)
		ckpts = append(ckpts, float64(d)/ms)
		if !wl.ckptOnClock {
			return 0
		}
		ckptWall += d
		return d
	}
	pr := prepare(st, wl, p, seed, n*wl.sliceBatches)
	pr.d.run(wl.warmBatches, false, false)
	tr.on.Store(true)
	a := drive(st, pr.d, wl, p, n, true, barrier)
	tr.on.Store(false)
	stackAllocs := float64(a.mallocs) / batches

	// The same stack, untraced, on the stream's continuation.
	var wall time.Duration
	var rates []float64
	for i := 0; i < n; i++ {
		w := a.d.run(wl.sliceBatches, false, false) + barrier(n+i+1)
		rates = append(rates, ops/float64(n)/w.Seconds())
		wall += w
	}
	untraced := ops / wall.Seconds()
	r.set("trace.overhead_pct", 100*(untraced-a.rate)/untraced)
	r.tally.check(st.verify())

	var waits [][]span
	for _, w := range a.d.workers {
		waits = append(waits, w.spans)
	}
	spans := collectSpans("service.serve", tr.serve, collectSpans("client.wait", waits, nil))
	if bad := nested(waits, tr.serve); bad > 0 {
		r.tally.fail(uint64(bad), fmt.Errorf("%d service.serve spans lie outside the client.wait span they are joined to", bad))
	}
	// As for every boundary, the times are read from the calmest slice.
	calmWaits, calmServes := sliceSpans(waits, a.calmest, wl.sliceBatches), sliceSpans(tr.serve, a.calmest, wl.sliceBatches)
	wait := a.batchUs
	serve := spanMedianUs(calmServes, func(_, _ int, s span) float64 { return float64(s.dur) })
	clientSelf := spanMedianUs(calmWaits, func(w, i int, s span) float64 {
		if i >= len(calmServes[w]) {
			return float64(s.dur)
		}
		return float64(s.dur - calmServes[w][i].dur)
	})
	lat := a.d.samples()
	r.set("client.wait_us", wait)
	r.set("client.batch_p999_us", quantile(lat, 0.999)/us)
	r.set("client.batch_max_us", quantile(lat, 1)/us)
	r.set("service.serve_us", serve)
	r.set("service.rejected", float64(a.c.rejected))
	r.set("host.peak_rss_mib", peakRSSMiB())
	r.set("host.cpu_us_per_op", float64(a.cpu)/us/ops)
	r.set("host.mallocs_per_op", float64(a.mallocs)/ops)
	r.set("host.gc_cycles", float64(a.gcs))
	r.set("host.slice_spread", ratio(quantile(rates, 1)-quantile(rates, 0), median(rates)))
	r.set("persist.ckpt_stall_frac", ratio(float64(ckptWall), float64(wall)+ops/a.rate*float64(time.Second)))

	// Counts per op over the traced slices, read where the work happens.
	r.set("core.l2_accesses_per_op", float64(a.c.l2Accesses)/ops)
	r.set("core.l2_miss_rate", ratio(float64(a.c.l2Misses), float64(a.c.l2Accesses)))
	r.set("integrity.checks_per_op", float64(a.c.checks)/ops)
	r.set("integrity.extra_reads_per_miss", ratio(float64(a.c.extraReads), float64(a.c.l2Misses)))
	r.set("hashalg.ops_per_op", float64(a.c.hashOps)/ops)
	r.set("hashalg.bytes_per_op", float64(a.c.hashBytes)/ops)
	r.set("bus.utilization", ratio(float64(a.c.busBusy), float64(a.c.cycles)))
	r.set("dram.reads_per_op", float64(a.c.dramReads)/ops)
	r.set("dram.writes_per_op", float64(a.c.dramWrites)/ops)

	// Probes that need the live service: the handler without a socket, a
	// scrape, a sampler round, checkpoints.
	direct := &handlerTarget{stack: st, h: st.svc.Handler()}
	a.d.bind(direct)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	a.d.run(wl.sliceBatches/4+1, false, false)
	runtime.ReadMemStats(&m1)
	direct.mu.Lock()
	r.set("service.handler_direct_us", median(direct.durs)/us)
	svcAllocs := float64(m1.Mallocs-m0.Mallocs) / float64(len(direct.durs))
	direct.mu.Unlock()
	r.set("service.allocs_per_batch", svcAllocs)
	r.set("client.allocs_per_batch", stackAllocs-svcAllocs)
	a.d.bind(st)

	r.set("telemetry.fill_us", timeMedian(50/p.probeScale+3, func() { st.svc.Fill(telemetry.NewRegistry()) })/us)
	sampler := obs.NewSampler(st.svc.Fill, time.Hour, 16)
	r.set("obs.sampler_round_us", timeMedian(50/p.probeScale+3, func() { sampler.SampleNow() })/us)

	c0 := counters(st)
	for i := 0; i < 5; i++ {
		a.d.run(p.roundBatches, false, false)
		ckpts = append(ckpts, float64(timedCheckpoint(st, &r.tally))/ms)
	}
	c1 := counters(st)
	r.set("persist.ckpt_ms", median(ckpts))
	r.set("persist.ckpt_max_ms", quantile(ckpts, 1))
	r.set("persist.bytes_per_ckpt", ratio(float64(c1.persistBytes-c0.persistBytes), float64(c1.checkpoints-c0.checkpoints)))
	r.tally.add(a.d.tally())
	if err := st.stop(); err != nil {
		return nil, err
	}
	var recs []float64
	for i := 0; i < 3; i++ {
		rs, built, err := startStack(cfg, nil)
		if err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		recs = append(recs, float64(built)/ms)
		if err := rs.stop(); err != nil {
			return nil, err
		}
	}
	r.set("persist.recover_ms", median(recs))

	// One boundary lower each time.
	store, err := shard.New(cfg.Tenants[0].Store)
	if err != nil {
		return nil, err
	}
	b := replay(storeTarget{store}, func() { r.tally.check(store.Flush()) }, wl, p, seed, n, &r.tally)
	var flushes []float64
	for i := 0; i < 5; i++ {
		b.d.run(p.roundBatches, false, false)
		t0 := time.Now()
		r.tally.check(store.Flush())
		flushes = append(flushes, float64(time.Since(t0)))
	}
	r.set("shard.barrier_us", median(flushes)/us)
	var one [1]byte
	r.set("shard.idle_roundtrip_us", timeMedian(2000/p.probeScale+3, func() {
		if err := store.LoadBytes(0, one[:]); err != nil {
			r.tally.fail(1, err)
		}
	})/us)
	store.Close()

	cm, err := newMachines(p, core.SchemeCached)
	if err != nil {
		return nil, err
	}
	c := replay(cm, cm.flush, wl, p, seed, n, &r.tally)
	machineProbes(r, p, cm.ms[0])

	bm, err := newMachines(p, core.SchemeBase)
	if err != nil {
		return nil, err
	}
	base := replay(bm, bm.flush, wl, p, seed, n, &r.tally)

	r.set("client.self_us", clientSelf)
	r.set("service.self_us", serve-b.batchUs)
	r.set("shard.batch_us", b.batchUs)
	r.set("shard.self_us", b.batchUs-c.batchUs)
	r.set("core.batch_us", c.batchUs)
	r.set("core.self_us", base.batchUs)
	r.set("integrity.self_us", c.batchUs-base.batchUs)
	self := []float64{clientSelf, serve - b.batchUs, b.batchUs - c.batchUs, base.batchUs, c.batchUs - base.batchUs}
	r.info("self_times", "add up to %.1f us of client.wait_us %.1f; the smallest is %.1f us (below 0: the replays did not load the cores alike)",
		self[0]+self[1]+self[2]+self[3]+self[4], wait, quantile(self, 0))
	r.info("replay_rates", "stack %.0f, store %.0f, machines %.0f, base machines %.0f ops/s", a.rate, b.rate, c.rate, base.rate)
	return spans, nil
}

// handlerTarget drives the service's handler with in-memory requests: the
// service without the socket. It times ServeHTTP alone.
type handlerTarget struct {
	*stack
	h    http.Handler
	mu   sync.Mutex
	durs []float64
}

func (t *handlerTarget) newBatch(int) batcher { return &handlerBatch{t: t} }

type handlerBatch struct {
	t   *handlerTarget
	ops []service.Op
}

func (b *handlerBatch) Load(off uint64, p []byte) {
	b.ops = append(b.ops, service.Op{Off: off, Data: p})
}

func (b *handlerBatch) Store(off uint64, p []byte) {
	b.ops = append(b.ops, service.Op{Write: true, Off: off, Data: p})
}

func (b *handlerBatch) Wait() error {
	ops := b.ops
	b.ops = b.ops[:0]
	req, err := http.NewRequest(http.MethodPost, "/v1/t/"+tenantName+"/batch", bytes.NewReader(service.EncodeRequest(ops)))
	if err != nil {
		return err
	}
	rec := &recorder{header: http.Header{}, status: http.StatusOK}
	t0 := time.Now()
	b.t.h.ServeHTTP(rec, req)
	d := time.Since(t0)
	b.t.mu.Lock()
	b.t.durs = append(b.t.durs, float64(d))
	b.t.mu.Unlock()
	if rec.status != http.StatusOK {
		return fmt.Errorf("handler answered %d: %s", rec.status, rec.body.String())
	}
	return service.DecodeResponse(&rec.body, ops)
}

// recorder is the in-memory http.ResponseWriter of handlerTarget.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(status int)      { r.status = status }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

// tracedSim is the traced run of sim-paper: one span per sweep point.
func tracedSim(r *report, wl *workload, p params, seed uint64, seconds float64) ([]fileSpan, error) {
	n := traceSlices(seconds) * wl.sliceBatches
	s := &simRunner{p: p, totals: map[simKey]simTotals{}}
	for w := 0; w < p.workers; w++ {
		s.lat = append(s.lat, make([]uint32, 0, n*len(simSchemes)*len(simBenches)))
	}
	for k := 0; k < wl.warmBatches; k++ {
		s.sweepOnce(seed, k, false, false)
	}
	phase := func(record bool) (rate float64, rates []float64) {
		t0 := time.Now()
		for k := 0; k < n; k++ {
			t := time.Now()
			s.sweepOnce(seed, k, record, false)
			rates = append(rates, sweepOps(p)/time.Since(t).Seconds())
		}
		return float64(n) * sweepOps(p) / time.Since(t0).Seconds(), rates
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	traced, rates := phase(true)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	untraced, _ := phase(false)
	ops := float64(n) * sweepOps(p)
	r.set("trace.overhead_pct", 100*(untraced-traced)/untraced)
	r.set("host.peak_rss_mib", peakRSSMiB())
	r.set("host.cpu_us_per_op", float64(cpu)/us/ops)
	r.set("host.mallocs_per_op", float64(m1.Mallocs-m0.Mallocs)/ops)
	r.set("host.gc_cycles", float64(m1.NumGC-m0.NumGC))
	r.set("host.slice_spread", ratio(quantile(rates, 1)-quantile(rates, 0), median(rates)))
	var lat []uint32
	var spans []fileSpan
	for w, l := range s.lat {
		lat = append(lat, l...)
		for i, ns := range l {
			spans = append(spans, fileSpan{Name: "sweep.point", Worker: w, Seq: i, DurUs: float64(ns) / us})
		}
	}
	r.set("client.batch_p999_us", quantile(lat, 0.999)/us)
	r.set("client.batch_max_us", quantile(lat, 1)/us)
	r.tally.add(s.tally)
	return spans, nil
}
