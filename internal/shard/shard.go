// Package shard provides a concurrent, sharded verification store: a
// protected region partitioned across N independent core.Machine
// instances, each with its own hash tree, L2, bus and DRAM, fronted by a
// router that maps addresses to shards. Every shard is driven by a single
// worker goroutine draining a bounded request queue, which preserves the
// machines' single-threaded contract while letting callers submit
// asynchronously and pipeline across shards.
//
// The model is the natural scale-out of the paper's single-machine design:
// each shard verifies a smaller region, so its tree is shallower and its
// (private) L2 holds a larger fraction of the tree — the cache-ability
// lever of §5.3 applied per shard. Aggregated metrics sum the per-shard
// counters and recompute derived rates, mirroring how the paper reports a
// single machine.
package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"memverify/internal/cache"
	"memverify/internal/core"
	"memverify/internal/integrity"
	"memverify/internal/stats"
	"memverify/internal/telemetry"
)

// Config describes a sharded store. Machine is the template configuration:
// its ProtectedBytes is the TOTAL protected size, divided evenly across
// Shards (so each machine protects ProtectedBytes/Shards and the benchmark
// footprint must fit in one shard's region). The template must be
// functional — the store serves real bytes — and must run the paper's
// serving configuration (see SettingError).
type Config struct {
	Machine core.Config

	// Shards is the number of independent machines (>= 1).
	Shards int

	// QueueDepth bounds each shard's request queue; submits block when the
	// queue is full (backpressure). Defaults to 64.
	QueueDepth int

	// Recorders, when non-nil, attaches one telemetry recorder per shard
	// (len must equal Shards). Each shard's trace renders as its own
	// process in the merged Chrome export (telemetry.WriteChromeTraces).
	Recorders []*telemetry.Recorder

	// OnViolation, when set, fires once per detected violation with the
	// shard it hit, the violation itself and whether the halt policy took
	// the shard down. It runs on the detecting shard's worker goroutine
	// (outside the store lock) and must not call back into the store —
	// it exists so a driver can feed a flight recorder the moment the
	// evidence appears rather than at end of run.
	OnViolation func(shard int, v *integrity.ViolationError, halted bool)
}

// Violation is one detected integrity violation attributed to a shard.
type Violation struct {
	Shard int
	Err   *integrity.ViolationError
}

// request is one unit of work on a shard's queue: either a byte transfer
// belonging to a Batch, or a control call with its own completion channel.
type request struct {
	off   uint64
	data  []byte
	write bool
	batch *Batch

	call func(*core.Machine) error
	done chan<- error
}

type worker struct {
	s      *Store
	idx    int
	m      *core.Machine
	reqs   chan request
	exited chan struct{}

	// cur is the batch whose operation the worker is running; the
	// machine's violation observer notes what it finds there. Only the
	// worker goroutine touches it.
	cur *Batch
}

// ErrClosed is reported (wrapped with the target shard) by operations
// submitted after — or racing with — Close. A network front-end sees it
// when a request lands on a store that is shutting down.
var ErrClosed = errors.New("store closed")

// ErrBusy is reported by TryLoad/TryStore when the target shard's bounded
// queue is full: nothing was enqueued and the caller may retry or shed the
// operation. It is the queue-full pushback a slow client is mapped onto.
var ErrBusy = errors.New("shard queue full")

// Store routes byte operations across the shards and aggregates their
// results. Submits, flushes and Close may run from many goroutines:
// operations racing with Close either complete normally or fail with
// ErrClosed — they never panic or write to a closed queue.
type Store struct {
	shards    []*worker
	shardSpan uint64 // bytes of program data per shard
	span      uint64 // total program data bytes
	halt      bool   // template policy is "halt"

	// closeMu orders queue sends against Close: senders hold it for read
	// around the channel send, Close holds it for write while flipping
	// closed and closing the queues, so a send never races the close.
	closeMu sync.RWMutex
	closed  bool

	ops   atomic.Uint64
	bytes atomic.Uint64

	onViolation func(shard int, v *integrity.ViolationError, halted bool)

	mu         sync.Mutex
	violations []Violation
	halted     []bool
}

// New assembles a store of cfg.Shards fresh machines. Shard i owns global
// offsets [i*ShardSpan, (i+1)*ShardSpan).
func New(cfg Config) (*Store, error) { return newStore(cfg, nil, nil) }

// NewFromState assembles a store whose shard i is built from the saved
// image imgs[i] and root register roots[i] (core.NewMachineFromState):
// the recovery constructor. Nothing is verified yet; VerifyAll does that.
func NewFromState(cfg Config, imgs, roots [][]byte) (*Store, error) {
	if len(imgs) != cfg.Shards || len(roots) != cfg.Shards {
		return nil, fmt.Errorf("shard: %d images and %d roots for %d shards", len(imgs), len(roots), cfg.Shards)
	}
	return newStore(cfg, imgs, roots)
}

// SettingError is the constructors' refusal of a machine template that
// strays from the paper's serving configuration: a store verifies every
// byte it returns, blocks on each check, and keeps tree nodes in the
// shared L2 (§5.3–5.5). The tree-ancestor prefetcher, the dedicated
// verification cache and timing-only digests are simulator ablations;
// core runs them, a store does not.
type SettingError struct {
	Field string // the core.Config field, e.g. "VerifyCacheLines"
	Value any
}

func (e *SettingError) Error() string {
	return fmt.Sprintf("shard: Machine.%s = %v: a store verifies, blocks and keeps tree nodes in the shared L2; that setting is a simulator ablation",
		e.Field, e.Value)
}

// checkServing returns the SettingError for the first ablation m enables.
func checkServing(m *core.Config) error {
	switch {
	case m.Prefetch.Enabled:
		return &SettingError{"Prefetch.Enabled", true}
	case m.VerifyCacheLines > 0:
		return &SettingError{"VerifyCacheLines", m.VerifyCacheLines}
	case m.HashMode != "" && m.HashMode != "full":
		return &SettingError{"HashMode", m.HashMode}
	}
	return nil
}

// newStore is the one constructor; imgs is nil for fresh machines.
func newStore(cfg Config, imgs, roots [][]byte) (*Store, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: need at least one shard, got %d", cfg.Shards)
	}
	if !cfg.Machine.Functional {
		return nil, fmt.Errorf("shard: the store serves real bytes; Machine.Functional is required")
	}
	if err := checkServing(&cfg.Machine); err != nil {
		return nil, err
	}
	if cfg.Recorders != nil && len(cfg.Recorders) != cfg.Shards {
		return nil, fmt.Errorf("shard: %d recorders for %d shards", len(cfg.Recorders), cfg.Shards)
	}
	per := cfg.Machine
	per.ProtectedBytes = cfg.Machine.ProtectedBytes / uint64(cfg.Shards)
	if per.ProtectedBytes == 0 {
		return nil, fmt.Errorf("shard: %d bytes split %d ways leaves nothing to protect",
			cfg.Machine.ProtectedBytes, cfg.Shards)
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 64
	}

	s := &Store{
		shards:      make([]*worker, cfg.Shards),
		halt:        cfg.Machine.ViolationPolicy == "halt",
		halted:      make([]bool, cfg.Shards),
		onViolation: cfg.OnViolation,
	}
	for i := range s.shards {
		c := per
		if cfg.Recorders != nil {
			// A distinct benchmark name per shard names the trace process.
			c.Telemetry = cfg.Recorders[i]
			c.Benchmark.Name = fmt.Sprintf("%s.s%d", per.Benchmark.Name, i)
		}
		var m *core.Machine
		var err error
		if imgs != nil {
			m, err = core.NewMachineFromState(c, imgs[i], roots[i])
		} else {
			m, err = core.NewMachine(c)
		}
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		w := &worker{s: s, idx: i, m: m, reqs: make(chan request, depth), exited: make(chan struct{})}
		m.ObserveViolations(w.noteViolation)
		s.shards[i] = w
	}
	s.shardSpan = s.shards[0].m.ProgSpan()
	s.span = s.shardSpan * uint64(cfg.Shards)
	for _, w := range s.shards {
		go w.run()
	}
	return s, nil
}

// run drains one shard's queue on its dedicated goroutine — the only
// goroutine that ever touches the shard's machine while the store is open.
func (w *worker) run() {
	defer close(w.exited)
	for req := range w.reqs {
		if req.call != nil {
			req.done <- req.call(w.m)
			continue
		}
		w.cur = req.batch
		var err error
		if req.write {
			err = w.m.StoreBytes(req.off, req.data)
		} else {
			err = w.m.LoadBytes(req.off, req.data)
		}
		w.cur = nil
		// A violation the load returns already reached the batch through
		// the observer; only the other errors (ErrHalted) are new.
		if err != nil && !isViolation(err) {
			req.batch.note(w.s.wrap(w.idx, err))
		}
		req.batch.wg.Done()
	}
}

// isViolation is errors.As for a ViolationError, kept out of run so its
// target escapes to the heap only on an error.
func isViolation(err error) bool {
	var ve *integrity.ViolationError
	return errors.As(err, &ve)
}

// noteViolation is the shard machine's violation observer; it runs on the
// worker goroutine, during the operation that detected v, so the batch
// that operation belongs to (if any) reports v from Wait. The OnViolation
// hook fires after the store lock is released.
func (w *worker) noteViolation(v *integrity.ViolationError) {
	s, i := w.s, w.idx
	if w.cur != nil {
		w.cur.note(s.wrap(i, v))
	}
	s.mu.Lock()
	s.violations = append(s.violations, Violation{Shard: i, Err: v})
	if s.halt {
		s.halted[i] = true
	}
	s.mu.Unlock()
	if s.onViolation != nil {
		s.onViolation(i, v, s.halt)
	}
}

// Shards returns the shard count; Span the total program data bytes;
// ShardSpan the bytes each shard serves.
func (s *Store) Shards() int       { return len(s.shards) }
func (s *Store) Span() uint64      { return s.span }
func (s *Store) ShardSpan() uint64 { return s.shardSpan }

// ShardFor returns the shard owning global offset off (offsets wrap
// modulo Span, mirroring Machine.ProgAddr).
func (s *Store) ShardFor(off uint64) int { return int((off % s.span) / s.shardSpan) }

// ShardRange returns the global offset range [lo, hi) shard i owns.
func (s *Store) ShardRange(i int) (lo, hi uint64) {
	return uint64(i) * s.shardSpan, uint64(i+1) * s.shardSpan
}

// Batch collects asynchronously submitted operations; Wait blocks for all
// of them and returns their joined errors. A batch may be reused after
// Wait returns. Operations on the same address (same shard) complete in
// submission order; operations on different shards are concurrent.
type Batch struct {
	s  *Store
	wg sync.WaitGroup

	mu   sync.Mutex
	errs []error
}

// NewBatch starts an empty batch.
func (s *Store) NewBatch() *Batch { return &Batch{s: s} }

func (b *Batch) note(err error) {
	b.mu.Lock()
	b.errs = append(b.errs, err)
	b.mu.Unlock()
}

// Load submits a verified read of len(p) bytes at global offset off. p
// must stay untouched until Wait returns. If the store is closed the
// failure surfaces (wrapped ErrClosed) from Wait.
func (b *Batch) Load(off uint64, p []byte) { b.s.submit(b, off, p, false) }

// Store submits a write of p at global offset off.
func (b *Batch) Store(off uint64, p []byte) { b.s.submit(b, off, p, true) }

// TryLoad is Load without blocking on a full queue: if the first target
// shard's queue cannot take the request immediately it returns ErrBusy
// and nothing is enqueued — the caller may retry or shed. Once the first
// span is accepted, spans spilling into neighbor shards submit normally
// (blocking), so an accepted operation always completes. A closed store
// returns the wrapped ErrClosed (also recorded in the batch).
func (b *Batch) TryLoad(off uint64, p []byte) error { return b.s.trySubmit(b, off, p, false) }

// TryStore is Store with TryLoad's queue-full semantics.
func (b *Batch) TryStore(off uint64, p []byte) error { return b.s.trySubmit(b, off, p, true) }

// Wait blocks until every submitted operation completed and returns the
// joined per-shard errors (each wrapped with the shard that produced it;
// errors.Is(err, core.ErrHalted) still works through the wrapping). Every
// violation detected while running one of this batch's loads or stores
// appears once, and no other batch's violation does.
func (b *Batch) Wait() error {
	b.wg.Wait()
	b.mu.Lock()
	errs := b.errs
	b.errs = nil
	b.mu.Unlock()
	return errors.Join(errs...)
}

// send enqueues req on shard i, blocking while the queue is full. It
// returns ErrClosed (and enqueues nothing) if the store closed first; it
// never writes to a closed channel because Close flips the flag and
// closes the queues under the write lock.
func (s *Store) send(i int, req request) error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	s.shards[i].reqs <- req
	return nil
}

// trySend is send without blocking: a full queue returns ErrBusy.
func (s *Store) trySend(i int, req request) error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	select {
	case s.shards[i].reqs <- req:
		return nil
	default:
		return ErrBusy
	}
}

// submit routes one operation, splitting spans that cross shard
// boundaries. Blocks when a target queue is full (backpressure). A closed
// store records the wrapped ErrClosed in the batch (surfacing from Wait)
// and drops the remaining spans.
func (s *Store) submit(b *Batch, off uint64, p []byte, write bool) {
	s.ops.Add(1)
	s.bytes.Add(uint64(len(p)))
	for len(p) > 0 {
		off %= s.span
		sh := int(off / s.shardSpan)
		local := off - uint64(sh)*s.shardSpan
		n := s.shardSpan - local
		if n > uint64(len(p)) {
			n = uint64(len(p))
		}
		b.wg.Add(1)
		if err := s.send(sh, request{off: local, data: p[:n:n], write: write, batch: b}); err != nil {
			b.wg.Done()
			b.note(s.wrap(sh, err))
			return
		}
		off += n
		p = p[n:]
	}
}

// trySubmit implements TryLoad/TryStore: the first span must be accepted
// without blocking (ErrBusy means nothing happened), the rest submit
// normally.
func (s *Store) trySubmit(b *Batch, off uint64, p []byte, write bool) error {
	first := true
	total := uint64(len(p))
	for len(p) > 0 {
		off %= s.span
		sh := int(off / s.shardSpan)
		local := off - uint64(sh)*s.shardSpan
		n := s.shardSpan - local
		if n > uint64(len(p)) {
			n = uint64(len(p))
		}
		b.wg.Add(1)
		req := request{off: local, data: p[:n:n], write: write, batch: b}
		var err error
		if first {
			err = s.trySend(sh, req)
		} else {
			err = s.send(sh, req)
		}
		if err != nil {
			b.wg.Done()
			if first && errors.Is(err, ErrBusy) {
				return ErrBusy
			}
			werr := s.wrap(sh, err)
			b.note(werr)
			return werr
		}
		if first {
			s.ops.Add(1)
			s.bytes.Add(total)
			first = false
		}
		off += n
		p = p[n:]
	}
	return nil
}

// LoadBytes is the synchronous form of Batch.Load: submit, wait, return.
func (s *Store) LoadBytes(off uint64, p []byte) error {
	b := s.NewBatch()
	b.Load(off, p)
	return b.Wait()
}

// StoreBytes is the synchronous form of Batch.Store.
func (s *Store) StoreBytes(off uint64, p []byte) error {
	b := s.NewBatch()
	b.Store(off, p)
	return b.Wait()
}

// do runs f on shard i's worker goroutine and returns its error. After
// Close the workers are gone and f runs directly — the store stays
// readable for metrics; the exited wait makes the inline run safe even
// when do races the close (the worker has fully drained by then).
func (s *Store) do(i int, f func(*core.Machine) error) error {
	done := make(chan error, 1)
	if err := s.send(i, request{call: f, done: done}); err != nil {
		<-s.shards[i].exited
		return f(s.shards[i].m)
	}
	return <-done
}

// doAll runs f on every shard concurrently (or directly, after Close) and
// joins the per-shard errors, each wrapped with its shard index.
func (s *Store) doAll(f func(int, *core.Machine) error) error {
	n := len(s.shards)
	errs := make([]error, n)
	dones := make([]chan error, n)
	for i, w := range s.shards {
		i, m := i, w.m
		dones[i] = make(chan error, 1)
		if err := s.send(i, request{call: func(*core.Machine) error { return f(i, m) }, done: dones[i]}); err != nil {
			<-w.exited
			dones[i] <- f(i, m)
		}
	}
	for i := range dones {
		errs[i] = s.wrap(i, <-dones[i])
	}
	return errors.Join(errs...)
}

func (s *Store) wrap(i int, err error) error {
	if err == nil {
		return nil
	}
	lo, hi := s.ShardRange(i)
	return fmt.Errorf("shard %d [%#x,%#x): %w", i, lo, hi, err)
}

// Flush drains every shard's dirty cached state through its engine — the
// cross-shard cryptographic barrier (§5.8 per shard, all shards reaching
// it before Flush returns).
func (s *Store) Flush() error {
	return s.doAll(func(_ int, m *core.Machine) error {
		m.Flush()
		return nil
	})
}

// VerifyAll runs Machine.VerifyAll on every shard concurrently: a flush,
// then every data-region block re-read through the verification engine.
// A violation (or a halted shard) surfaces as that shard's wrapped error;
// healthy shards verify clean regardless — one halted shard never wedges
// its neighbors.
func (s *Store) VerifyAll() error {
	return s.doAll(func(_ int, m *core.Machine) error { return m.VerifyAll() })
}

// WithShard runs f against shard i's machine on that shard's worker
// goroutine, after every previously enqueued request on that shard has
// drained — the safe way to attach an adversary or inspect machine state
// while the store is live.
func (s *Store) WithShard(i int, f func(*core.Machine)) {
	_ = s.do(i, func(m *core.Machine) error { f(m); return nil })
}

// Violations returns every violation detected so far, in detection order,
// each attributed to its shard.
func (s *Store) Violations() []Violation {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Violation, len(s.violations))
	copy(out, s.violations)
	return out
}

// Halted reports whether shard i tripped the halt policy.
func (s *Store) Halted(i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.halted[i]
}

// Health returns the store's liveness counts: total shards, shards the
// halt policy took down, and violations on record. Safe to call from any
// goroutine while the store serves — the /healthz source.
func (s *Store) Health() (shards, haltedShards, violations int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, h := range s.halted {
		if h {
			haltedShards++
		}
	}
	return len(s.shards), haltedShards, len(s.violations)
}

// Close shuts the workers down after draining their queues and waits for
// them to exit. The store stays readable for metrics (do/doAll run
// inline); further submits fail with ErrClosed via Batch.Wait. Close is
// idempotent and safe to race with submits, barriers and samplers: a
// racing operation either lands before the close (and drains) or observes
// ErrClosed — never a send on a closed queue.
func (s *Store) Close() {
	s.closeMu.Lock()
	already := s.closed
	s.closed = true
	if !already {
		for _, w := range s.shards {
			close(w.reqs)
		}
	}
	s.closeMu.Unlock()
	for _, w := range s.shards {
		<-w.exited
	}
}

// Aggregate is the store-wide view of the per-shard metrics.
type Aggregate struct {
	Shards   int
	PerShard []core.Metrics
	// Total sums the per-shard counters and recomputes derived rates
	// (core.MergeMetrics); cycles are total machine-cycles of work, not
	// wall time — the shards' clocks are independent.
	Total core.Metrics
	// PathExtras merges the shards' read-path extra-blocks histograms
	// (nil when no shard observed a verified read path).
	PathExtras *stats.Histogram
	// OpsSubmitted and BytesSubmitted count caller-level operations
	// (before boundary splitting).
	OpsSubmitted   uint64
	BytesSubmitted uint64
}

// Metrics snapshots every shard (on its own worker, so in-flight requests
// drain first) and aggregates.
func (s *Store) Metrics() Aggregate { return s.metrics(nil) }

// metrics is the one aggregation path: it snapshots the shards in shard
// order, each on its worker, and calls also (when set) right after each
// snapshot with the machine and its metrics, still on that worker.
func (s *Store) metrics(also func(m *core.Machine, mt *core.Metrics)) Aggregate {
	n := len(s.shards)
	agg := Aggregate{Shards: n, PerShard: make([]core.Metrics, n)}
	for i := range s.shards {
		_ = s.do(i, func(m *core.Machine) error {
			mt := &agg.PerShard[i]
			*mt = m.Snapshot()
			if h := m.Sys.PathExtras; h != nil {
				if agg.PathExtras == nil {
					agg.PathExtras = h.Clone()
				} else {
					agg.PathExtras.Merge(h)
				}
			}
			if also != nil {
				also(m, mt)
			}
			return nil
		})
	}
	agg.Total = core.MergeMetrics(agg.PerShard...)
	agg.OpsSubmitted = s.ops.Load()
	agg.BytesSubmitted = s.bytes.Load()
	return agg
}

// FillRegistry snapshots every shard into reg and returns the aggregate.
// Counters, histograms and series accumulate across shards (in shard
// order, so the output is deterministic); the scalar gauges are then
// overwritten with store-wide values so they describe the whole store
// rather than the last shard filled.
func (s *Store) FillRegistry(reg *telemetry.Registry) Aggregate {
	var dataLines, hashLines, totalLines uint64
	agg := s.metrics(func(m *core.Machine, mt *core.Metrics) {
		m.FillRegistry(reg, mt)
		dataLines += uint64(m.L2.ResidentLinesClass(cache.Data))
		hashLines += uint64(m.L2.ResidentLinesClass(cache.Hash))
		totalLines += uint64(m.Cfg.L2Size / m.Cfg.L2Block)
	})
	reg.Add("shard.count", uint64(agg.Shards))
	reg.Add("shard.ops_submitted", agg.OpsSubmitted)
	reg.Add("shard.bytes_submitted", agg.BytesSubmitted)

	// Liveness: violations is a counter (the record only grows); halted
	// shards and the per-shard halt flags are levels. shard.s<i>.halted
	// gives a scrape per-shard attribution without labels.
	s.mu.Lock()
	haltedShards := 0
	for i, h := range s.halted {
		v := 0.0
		if h {
			v = 1.0
			haltedShards++
		}
		reg.SetGauge(fmt.Sprintf("shard.s%d.halted", i), v)
	}
	reg.Add("shard.violations", uint64(len(s.violations)))
	s.mu.Unlock()
	reg.SetGauge("shard.halted_shards", float64(haltedShards))

	t := &agg.Total
	reg.SetGauge("cpu.ipc", t.IPC)
	reg.SetGauge("l2.data_miss_rate", t.DataMissRate)
	reg.SetGauge("l2.hash_miss_rate", t.L2HashMissRate)
	reg.SetGauge("bus.utilization", t.BusUtilization)
	reg.SetGauge("integrity.extra_per_miss", t.ExtraPerMiss)
	// Per-shard fills leave the last shard's residency levels in the
	// gauges; overwrite them with store-wide sums.
	reg.SetGauge("l2.resident_lines_data", float64(dataLines))
	reg.SetGauge("l2.resident_lines_hash", float64(hashLines))
	if totalLines > 0 {
		reg.SetGauge("l2.hash_residency", float64(hashLines)/float64(totalLines))
	}
	return agg
}
