package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"memverify/internal/core"
	"memverify/internal/shard"
	"memverify/internal/telemetry"
)

// batcher is the batch surface client.Batch and shard.Batch share, which
// lets one worker loop drive every boundary of the stack.
type batcher interface {
	Load(off uint64, p []byte)
	Store(off uint64, p []byte)
	Wait() error
}

// target is a boundary the op streams can be driven against: the client of
// a running stack, a shard.Store, or bare machines.
type target interface {
	newBatch(worker int) batcher
	stripe() uint64 // bytes each worker owns
	verify() error  // re-read the whole span through the engine
	fill(reg *telemetry.Registry)
}

type storeTarget struct{ s *shard.Store }

func (t storeTarget) newBatch(int) batcher       { return &bufferedBatch{store: t.s.NewBatch()} }
func (t storeTarget) stripe() uint64             { return t.s.ShardSpan() }
func (t storeTarget) verify() error              { return t.s.VerifyAll() }
func (t storeTarget) fill(r *telemetry.Registry) { t.s.FillRegistry(r) }

// machineTarget drives bare machines, one per worker, on the worker's own
// goroutine: the stack below the shard queue.
type machineTarget struct {
	ms   []*core.Machine
	span uint64 // program bytes of each machine
}

func (t machineTarget) newBatch(worker int) batcher {
	return &bufferedBatch{m: t.ms[worker], base: uint64(worker) * t.span}
}

// newMachines builds the bare per-shard machines of a store of the given
// scheme, as shard.New would.
func newMachines(p params, scheme core.Scheme) (machineTarget, error) {
	per := shardMachineConfig(p, scheme)
	t := machineTarget{}
	for i := 0; i < p.workers; i++ {
		m, err := core.NewMachine(per)
		if err != nil {
			return t, err
		}
		t.ms = append(t.ms, m)
	}
	t.span = t.ms[0].ProgSpan()
	return t, nil
}

func (t machineTarget) stripe() uint64 { return t.span }

// verify is Store.VerifyAll on bare machines: flush, then read every block.
func (t machineTarget) verify() error {
	for _, m := range t.ms {
		m.Flush()
		bs := uint64(m.Cfg.L2Block)
		buf := make([]byte, bs)
		for off := uint64(0); off < t.span; off += bs {
			if err := m.LoadBytes(off, buf[:min(bs, t.span-off)]); err != nil {
				return err
			}
		}
	}
	return nil
}

func (t machineTarget) flush() {
	for _, m := range t.ms {
		m.Flush()
	}
}

func (t machineTarget) fill(reg *telemetry.Registry) {
	for _, m := range t.ms {
		mt := m.Snapshot()
		m.FillRegistry(reg, &mt)
	}
}

type bufferedOp struct {
	off   uint64
	p     []byte
	write bool
}

// bufferedBatch buffers like client.Batch and executes in Wait — against a
// shard.Batch (submit, then wait, as the service's handler does) or a bare
// machine — so the time around Wait is that boundary's time for the batch.
type bufferedBatch struct {
	store *shard.Batch
	m     *core.Machine
	base  uint64 // global offset of the machine's stripe
	ops   []bufferedOp
}

func (b *bufferedBatch) Load(off uint64, p []byte) {
	b.ops = append(b.ops, bufferedOp{off: off, p: p})
}

func (b *bufferedBatch) Store(off uint64, p []byte) {
	b.ops = append(b.ops, bufferedOp{off: off, p: p, write: true})
}

func (b *bufferedBatch) Wait() error {
	ops := b.ops
	b.ops = b.ops[:0]
	if b.store != nil {
		for _, o := range ops {
			if o.write {
				b.store.Store(o.off, o.p)
			} else {
				b.store.Load(o.off, o.p)
			}
		}
		return b.store.Wait()
	}
	var first error
	for _, o := range ops {
		var err error
		if o.write {
			err = b.m.StoreBytes(o.off-b.base, o.p)
		} else {
			err = b.m.LoadBytes(o.off-b.base, o.p)
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// tally counts operations against attempts; the first failure is kept for
// the report.
type tally struct {
	attempted, failed uint64
	firstErr          error
}

func (t *tally) fail(n uint64, err error) {
	t.failed += n
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// check counts one output check that is not an op of a stream.
func (t *tally) check(err error) {
	t.attempted++
	if err != nil {
		t.fail(1, err)
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

const maxSlot = 512 // longest payload of any stream (a full log record)

// span is one timed interval of the traced run.
type span struct {
	start time.Time
	dur   time.Duration
}

// worker is one closed-loop client: it owns a stripe, the byte mirror of
// that stripe, and the stream that mutates both.
type worker struct {
	id     int
	base   uint64 // global offset of the stripe
	mirror []byte
	g      *gen
	pay    rng // payload bytes of writes
	b      batcher

	batchOps int
	slots    []byte // one payload/destination slot per op of a batch
	want     []byte // expected bytes of each read, copied at submission
	reads    []op   // the reads of the batch in flight; off is the slot index

	lat   []uint32 // Batch.Wait times in ns, pre-allocated
	spans []span   // client.wait spans, traced run only
	tally
	stored uint64 // user bytes written
}

// batches runs n closed-loop batches. Every load is checked against the
// mirror as it stood when the load was submitted.
func (w *worker) batches(n int, record, trace bool) {
	for ; n > 0; n-- {
		w.reads = w.reads[:0]
		for i := 0; i < w.batchOps; i++ {
			o := w.g.next()
			slot := w.slots[i*maxSlot : i*maxSlot+o.n]
			if o.write {
				w.pay.fill(slot)
				copy(w.mirror[o.off:], slot)
				w.b.Store(w.base+o.off, slot)
				w.stored += uint64(o.n)
			} else {
				copy(w.want[i*maxSlot:], w.mirror[o.off:o.off+uint64(o.n)])
				w.b.Load(w.base+o.off, slot)
				w.reads = append(w.reads, op{off: uint64(i), n: o.n})
			}
		}
		start := time.Now()
		err := w.b.Wait()
		d := time.Since(start)
		if record && len(w.lat) < cap(w.lat) {
			w.lat = append(w.lat, uint32(min(d.Nanoseconds(), 1<<32-1)))
		}
		if trace {
			w.spans = append(w.spans, span{start, d})
		}
		w.attempted += uint64(w.batchOps)
		if err != nil {
			w.fail(uint64(w.batchOps), fmt.Errorf("worker %d: batch: %w", w.id, err))
			continue
		}
		for _, r := range w.reads {
			lo := int(r.off) * maxSlot
			if !bytes.Equal(w.slots[lo:lo+r.n], w.want[lo:lo+r.n]) {
				w.fail(1, fmt.Errorf("worker %d: read of %d bytes differs from the mirror", w.id, r.n))
			}
		}
	}
}

// driver is the set of workers of one run over one stack.
type driver struct {
	workers []*worker
}

// newDriver builds the workers and their mirrors. latCap is the number of
// latency samples to pre-allocate per worker.
func newDriver(wl *workload, p params, seed uint64, stripe uint64, latCap int) *driver {
	d := &driver{}
	for i := 0; i < p.workers; i++ {
		w := &worker{
			id:       i,
			base:     uint64(i) * stripe,
			mirror:   make([]byte, stripe),
			batchOps: wl.batchOps,
			slots:    make([]byte, wl.batchOps*maxSlot),
			want:     make([]byte, wl.batchOps*maxSlot),
			reads:    make([]op, 0, wl.batchOps),
			lat:      make([]uint32, 0, latCap),
			g:        newGen(wl, seed, i, phaseMeasure, stripe),
			pay:      rng{s: streamSeed(seed, i+p.workers, phaseMeasure)},
		}
		pre := rng{s: streamSeed(seed, i, phasePreload)}
		pre.fill(w.mirror)
		d.workers = append(d.workers, w)
	}
	return d
}

func (d *driver) bind(t target) {
	for _, w := range d.workers {
		w.b = t.newBatch(w.id)
	}
}

// each runs f on every worker concurrently and waits: the barrier between
// slices.
func (d *driver) each(f func(w *worker)) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range d.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			f(w)
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

// run has every worker do n batches and returns the wall time.
func (d *driver) run(n int, record, trace bool) time.Duration {
	return d.each(func(w *worker) { w.batches(n, record, trace) })
}

const preloadChunk = 64 << 10

// preload stores every mirror through the target, so the whole span holds
// seeded bytes before anything is measured.
func (d *driver) preload() {
	d.each(func(w *worker) {
		for off := 0; off < len(w.mirror); off += preloadChunk {
			end := min(off+preloadChunk, len(w.mirror))
			w.b.Store(w.base+uint64(off), w.mirror[off:end])
			w.stored += uint64(end - off)
			w.attempted++
			if err := w.b.Wait(); err != nil {
				w.fail(1, fmt.Errorf("worker %d: preload: %w", w.id, err))
			}
		}
	})
}

// compare reads the whole span back through the target and checks it
// against the mirrors.
func (d *driver) compare() {
	d.each(func(w *worker) {
		buf := make([]byte, preloadChunk)
		for off := 0; off < len(w.mirror); off += preloadChunk {
			end := min(off+preloadChunk, len(w.mirror))
			got := buf[:end-off]
			w.b.Load(w.base+uint64(off), got)
			w.attempted++
			if err := w.b.Wait(); err != nil {
				w.fail(1, fmt.Errorf("worker %d: compare: %w", w.id, err))
			} else if !bytes.Equal(got, w.mirror[off:end]) {
				w.fail(1, fmt.Errorf("worker %d: recovered bytes at %d differ from the mirror", w.id, off))
			}
		}
	})
}

func (d *driver) tally() tally {
	var t tally
	for _, w := range d.workers {
		t.add(w.tally)
	}
	return t
}

func (d *driver) stored() uint64 {
	var n uint64
	for _, w := range d.workers {
		n += w.stored
	}
	return n
}

// lats returns every worker's latency samples so far.
func (d *driver) lats() [][]uint32 {
	ls := make([][]uint32, len(d.workers))
	for i, w := range d.workers {
		ls[i] = w.lat
	}
	return ls
}

// samples returns every worker's latency samples in one slice.
func (d *driver) samples() []uint32 {
	var all []uint32
	for _, w := range d.workers {
		all = append(all, w.lat...)
	}
	return all
}
