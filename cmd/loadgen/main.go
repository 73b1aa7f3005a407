// Command loadgen drives read/write traffic through a sharded
// verification store (internal/shard) and reports verified throughput.
// Every read is checked against a per-worker mirror of the bytes the
// store should hold, and the final region is re-verified through the hash
// machinery, so a nonzero exit means a real integrity or consistency
// failure — the CI smoke test relies on that.
//
// Traffic shape is selected with -workload: the default mixed uniform
// traffic, plus the disk-style generators the cloud-storage literature
// assumes — seq (streaming), zipf (hot-spot skew) and appendlog
// (append-only writes with trailing reads). All are deterministic per
// seed.
//
// With -persist DIR the store checkpoints through internal/persist every
// -checkpoint-every ops per worker (add -anchor FILE to pin the WAL tail
// in external trusted storage), and the kill/restart flags exercise crash
// recovery end to end:
//
//	loadgen -persist d -kill-after 2 -kill-stage seg-write   # dies (exit 3)
//	loadgen -persist d -restart -expect-outcome recovered-clean,recovered-torn
//
// With -remote URL the same mirror-checked workload (and the tamper leg)
// drives a memverifyd tenant over the wire instead of an in-process
// store — the service must be byte-transparent, so a mismatch or an
// unexpected verification verdict exits nonzero exactly like the local
// mode:
//
//	loadgen -remote http://127.0.0.1:8380 -tenant t0 -workers 25 -ops 10000
//
// Usage:
//
//	loadgen -scheme c -shards 4 -workers 4 -ops 20000
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"memverify/internal/core"
	"memverify/internal/integrity"
	"memverify/internal/obs"
	"memverify/internal/persist"
	"memverify/internal/runflags"
	"memverify/internal/service/client"
	"memverify/internal/shard"
	"memverify/internal/telemetry"
	"memverify/internal/trace"
)

// target abstracts where the traffic lands: an in-process shard.Store or
// a memverifyd tenant over the wire. Both expose the same addressing and
// batch surface, so the mirror-checked workload is oblivious.
type target interface {
	Span() uint64
	ShardFor(off uint64) int
	NewBatch() opBatch
}

// opBatch is the batch surface the workload drives. *shard.Batch and
// *client.Batch both satisfy it; the adapters below only fix up the
// NewBatch return type.
type opBatch interface {
	Load(off uint64, p []byte)
	Store(off uint64, p []byte)
	Wait() error
}

type localTarget struct{ s *shard.Store }

func (t localTarget) Span() uint64            { return t.s.Span() }
func (t localTarget) ShardFor(off uint64) int { return t.s.ShardFor(off) }
func (t localTarget) NewBatch() opBatch       { return t.s.NewBatch() }

type remoteTarget struct{ c *client.Client }

func (t remoteTarget) Span() uint64            { return t.c.Span() }
func (t remoteTarget) ShardFor(off uint64) int { return t.c.ShardFor(off) }
func (t remoteTarget) NewBatch() opBatch       { return t.c.NewBatch() }

// errKilled signals the simulated process death of -kill-after: main
// exits 3 so scripts can tell "died at the kill point as asked" from
// failure.
var errKilled = errors.New("killed at the injected crash point")

// errFailed signals a failure whose message was already printed.
var errFailed = errors.New("failed")

func main() {
	err := run()
	switch {
	case err == nil:
	case errors.Is(err, errKilled):
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(3)
	case errors.Is(err, errFailed):
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// opGen produces one worker's deterministic operation stream.
type opGen struct {
	kind      string
	rng       *rand.Rand
	stripe    uint64
	maxLen    int
	writeFrac float64

	head uint64     // seq / appendlog write cursor
	zipf *rand.Zipf // zipf block sampler
}

func newOpGen(kind string, seed int64, stripe uint64, maxLen int, writeFrac float64) (*opGen, error) {
	g := &opGen{kind: kind, rng: rand.New(rand.NewSource(seed)), stripe: stripe,
		maxLen: maxLen, writeFrac: writeFrac}
	switch kind {
	case "mixed", "seq", "appendlog":
	case "zipf":
		blocks := stripe / 64
		if blocks < 2 {
			return nil, fmt.Errorf("stripe %d too small for the zipf workload", stripe)
		}
		g.zipf = rand.NewZipf(g.rng, 1.2, 1, blocks-1)
	default:
		return nil, fmt.Errorf("unknown workload %q (want mixed, seq, zipf or appendlog)", kind)
	}
	return g, nil
}

// next returns the offset, length and direction of the next operation.
// Offsets are stripe-relative and always satisfy off+len <= stripe.
func (g *opGen) next() (off uint64, length int, write bool) {
	length = 1 + g.rng.Intn(g.maxLen)
	limit := g.stripe - uint64(length)
	switch g.kind {
	case "seq":
		// Streaming: a cursor sweeps the stripe; reads trail the cursor.
		if g.head > limit {
			g.head = 0
		}
		off = g.head
		g.head += uint64(length)
		write = g.rng.Float64() < g.writeFrac
	case "zipf":
		// Hot-spot skew: block popularity is zipf-distributed, the byte
		// inside the block uniform.
		off = g.zipf.Uint64() * 64
		if off > limit {
			off = limit
		}
		write = g.rng.Float64() < g.writeFrac
	case "appendlog":
		// Append-only writes at the head; reads sample the recent
		// window, like a log follower.
		if g.rng.Float64() < g.writeFrac {
			if g.head > limit {
				g.head = 0
			}
			off = g.head
			g.head += uint64(length)
			write = true
		} else {
			window := uint64(16 << 10)
			if window > g.head {
				window = g.head
			}
			if window == 0 {
				off = 0
			} else {
				off = g.head - 1 - g.rng.Uint64()%window
			}
			if off > limit {
				off = limit
			}
		}
	default: // mixed
		off = g.rng.Uint64() % (limit + 1)
		write = g.rng.Float64() < g.writeFrac
	}
	return off, length, write
}

func run() error {
	cfg := core.DefaultConfig()
	scheme := flag.String("scheme", "c", "verification scheme: naive, c, m, i")
	shards := flag.Int("shards", 4, "number of independent verification shards")
	workers := flag.Int("workers", 4, "concurrent traffic generators (each owns a disjoint stripe)")
	ops := flag.Int("ops", 20_000, "operations per worker")
	writeFrac := flag.Float64("write-frac", 0.5, "fraction of operations that are writes")
	maxLen := flag.Int("max-len", 256, "maximum bytes per operation")
	batch := flag.Int("batch", 16, "operations in flight per worker before completion is collected")
	queueDepth := flag.Int("queue-depth", 64, "per-shard request queue depth")
	protected := flag.Uint64("protected", 8<<20, "total protected bytes across all shards")
	l2 := flag.Int("l2", 256<<10, "per-shard L2 size in bytes")
	block := flag.Int("block", cfg.L2Block, "L2 block size in bytes")
	chunkBlocks := flag.Int("chunk-blocks", 0, "L2 blocks per hash chunk (default 1, or 2 for m/i)")
	alg := flag.String("alg", cfg.HashAlg, "hash algorithm: md5, sha1, fnv128")
	policy := flag.String("policy", "record", "violation policy: record or halt")
	seed := flag.Uint64("seed", 1, "traffic seed")
	tamper := flag.Int("tamper", -1, "corrupt this shard's memory after the traffic phase (expect a nonzero exit)")
	verify := flag.Bool("verify", true, "re-read and verify the whole region after the traffic phase")
	workload := flag.String("workload", "mixed", "traffic shape: mixed, seq, zipf, appendlog")
	remote := flag.String("remote", "", "drive a memverifyd instance at this URL instead of an in-process store")
	tenantName := flag.String("tenant", "t0", "with -remote: the tenant to drive")
	persistDir := flag.String("persist", "", "checkpoint the store into this directory (enables the persistence layer)")
	anchorPath := flag.String("anchor", "", "with -persist: pin the WAL tail in this external trusted-storage file (whole-directory replay detection)")
	ckptEvery := flag.Int("checkpoint-every", 2000, "ops per worker between checkpoints (persist mode)")
	killAfter := flag.Int("kill-after", 0, "die at -kill-stage during the Nth checkpoint (persist mode; exit 3)")
	killStage := flag.String("kill-stage", persist.StageSegWrite,
		"crash point: wal-write, wal-sync, between-wal-checkpoint, seg-write, seg-sync, manifest-write, manifest-rename, any")
	restart := flag.Bool("restart", false, "recover the store from -persist before generating traffic")
	expectOutcome := flag.String("expect-outcome", "", "with -restart: comma-separated acceptable recovery outcomes; exit 0 on match without running traffic, 1 otherwise")
	opsLinger := flag.Duration("ops-linger", 0, "keep the ops server alive this long after the run completes (lets a scraper read the final /metrics, /healthz and /flightrecord)")
	progress := flag.Bool("progress", true, "with -ops-listen: print a one-line throughput/violations status per sample")
	rf := runflags.Add()
	flag.Parse()

	stopProf, err := rf.StartProfiling()
	if err != nil {
		return err
	}
	defer stopProf()

	cfg.Scheme = core.Scheme(*scheme)
	cfg.Benchmark = trace.Uniform("loadgen", 32<<10)
	cfg.Benchmark.CodeSet = 4 << 10
	cfg.ProtectedBytes = *protected
	cfg.L2Size = *l2
	cfg.L2Block = *block
	cfg.HashAlg = *alg
	cfg.ViolationPolicy = *policy
	cfg.Functional = true
	cfg.Seed = *seed
	switch {
	case *chunkBlocks > 0:
		cfg.ChunkBlocks = *chunkBlocks
	case cfg.Scheme == core.SchemeMulti || cfg.Scheme == core.SchemeIncr:
		cfg.ChunkBlocks = 2
	default:
		cfg.ChunkBlocks = 1
	}

	if *workers < 1 || *ops < 1 || *batch < 1 || *maxLen < 1 {
		return fmt.Errorf("workers, ops, batch and max-len must be positive")
	}

	recs := rf.NewRecorders(*shards)
	fr := rf.NewFlightRecorder()
	defer rf.DumpFlight(fr)

	if *remote != "" {
		if *persistDir != "" || *restart {
			return fmt.Errorf("-remote drives an external daemon; its persistence is the daemon's -persist, not loadgen's")
		}
		return runRemote(*remote, *tenantName, *workload, *workers, *ops, *batch, *maxLen,
			*writeFrac, *seed, *tamper, *verify, fr)
	}

	pobs := &persistObs{}
	scfg := shard.Config{Machine: cfg, Shards: *shards, QueueDepth: *queueDepth, Recorders: recs,
		OnViolation: func(sh int, v *integrity.ViolationError, halted bool) {
			fr.Record(obs.EvViolation, sh, 0, v.Error())
			if halted {
				fr.Record(obs.EvShardHalt, sh, 0, "halt policy tripped")
			}
		}}

	// Build (or recover) the store.
	var s *shard.Store
	if *restart {
		if *persistDir == "" {
			return fmt.Errorf("-restart needs -persist DIR")
		}
		rs, rec, err := persist.RecoverStore(persist.Options{Dir: *persistDir, AnchorPath: *anchorPath, OnEvent: persistEvent(fr)}, scfg)
		if err != nil {
			return err
		}
		s = rs
		pobs.noteRecovery(rec)
		fmt.Printf("loadgen: recovery outcome=%s epoch=%d rolled_forward=%t wal_repaired=%t",
			rec.Outcome, rec.Epoch, rec.RolledForward, rec.WALRepaired)
		if rec.Detail != "" {
			fmt.Printf(" detail=%q", rec.Detail)
		}
		fmt.Println()
		if *expectOutcome != "" {
			s.Close()
			for _, want := range strings.Split(*expectOutcome, ",") {
				if string(rec.Outcome) == strings.TrimSpace(want) {
					return nil
				}
			}
			fmt.Fprintf(os.Stderr, "loadgen: recovery outcome %s not in %q\n", rec.Outcome, *expectOutcome)
			return errFailed
		}
		if rec.Outcome == persist.OutcomeViolation {
			s.Close()
			fmt.Fprintf(os.Stderr, "loadgen: VIOLATION at recovery: %s\n", rec.Detail)
			return errFailed
		}
	} else {
		s, err = shard.New(scfg)
		if err != nil {
			return err
		}
	}
	defer s.Close()

	span := s.Span()
	stripe := span / uint64(*workers)
	if stripe <= uint64(*maxLen) {
		return fmt.Errorf("stripe %d too small for %dB operations; fewer workers or more protected bytes", stripe, *maxLen)
	}

	// The live ops surface: sampler fills route through the shard worker
	// queues, so scraping is safe while traffic runs. No trace recorders
	// are attached by -ops-listen alone — /trace works only when -trace or
	// -metrics asked for recorders, keeping the enabled-but-unscraped
	// overhead within the telemetry budget.
	var progressFn func(obs.Sample)
	if *progress {
		progressFn = func(sm obs.Sample) {
			fmt.Fprintf(os.Stderr,
				"loadgen: status ops/sec=%.0f bytes/sec=%.0f violations=%d halted_shards=%.0f\n",
				sm.Derived[obs.SeriesOpsPerSec], sm.Derived[obs.SeriesBytesPerSec],
				sm.Counters["shard.violations"], sm.Gauges["shard.halted_shards"])
		}
	}
	srv, err := rf.StartOps(obs.Options{
		Fill: func(reg *telemetry.Registry) {
			s.FillRegistry(reg)
			pobs.fill(reg)
		},
		Health: func() obs.Health {
			n, halted, viol := s.Health()
			return obs.Health{Shards: n, HaltedShards: halted, PendingViolations: viol}
		},
		Flight:       fr,
		CaptureTrace: captureTrace(s, recs),
		OnSample:     progressFn,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	fr.Record(obs.EvRunStart, -1, 0, fmt.Sprintf("scheme=%s shards=%d workers=%d ops=%d workload=%s",
		*scheme, *shards, *workers, *ops, *workload))

	var failed bool
	start := time.Now()
	if *persistDir != "" {
		err = runPersistent(s, scfg, *persistDir, *anchorPath, *workload, *workers, *ops, *ckptEvery,
			*batch, *maxLen, *writeFrac, *seed, *killAfter, *killStage, *policy, *restart, fr, pobs)
		if err != nil {
			if errors.Is(err, errKilled) {
				return err
			}
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			failed = true
		}
	} else {
		failed = !runConcurrent(localTarget{s}, *workload, *workers, *ops, *batch, *maxLen, *writeFrac, *seed)
	}
	trafficElapsed := time.Since(start)

	if *tamper >= 0 && *tamper < s.Shards() {
		s.WithShard(*tamper, func(m *core.Machine) {
			m.EvictProtected()
			m.Adversary().Corrupt(m.ProgAddr(0), 0xFF)
		})
		fr.Record(obs.EvTamper, *tamper, 0, "injected corruption after the traffic phase")
	}
	if *verify && !failed {
		if err := s.VerifyAll(); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: final verification failed:", err)
			failed = true
		}
	}
	for _, v := range s.Violations() {
		fmt.Fprintf(os.Stderr, "loadgen: VIOLATION on shard %d: %v\n", v.Shard, v.Err)
		failed = true
	}

	// Sampling must stop before Close: once the workers exit, fills would
	// run inline on whatever goroutine asked. The server itself stays up
	// (serving the published final state) through the linger window.
	srv.StopSampling()
	s.Close()
	agg := s.Metrics()
	fr.Record(obs.EvRunEnd, -1, 0, fmt.Sprintf("failed=%t violations=%d", failed, len(s.Violations())))
	if srv != nil || rf.MetricsPath() != "" {
		finalReg := telemetry.NewRegistry()
		s.FillRegistry(finalReg)
		pobs.fill(finalReg)
		srv.Publish(finalReg)
		if err := rf.WriteMetrics(finalReg); err != nil {
			return err
		}
	}
	if recs != nil {
		traces := make([]*telemetry.Trace, len(recs))
		for i, r := range recs {
			traces[i] = r.Trace
		}
		if err := rf.WriteTrace(traces...); err != nil {
			return err
		}
	}

	sec := trafficElapsed.Seconds()
	fmt.Printf("loadgen: scheme=%s workload=%s shards=%d workers=%d ops=%d bytes=%d elapsed=%.3fs\n",
		*scheme, *workload, *shards, *workers, agg.OpsSubmitted, agg.BytesSubmitted, sec)
	fmt.Printf("loadgen: ops_per_sec=%.1f bytes_per_sec=%.1f checks=%d machine_cycles=%d\n",
		float64(agg.OpsSubmitted)/sec, float64(agg.BytesSubmitted)/sec,
		agg.Total.IntegrityStats.Checks, agg.Total.Result.Cycles)
	if srv != nil && *opsLinger > 0 {
		// Signal-aware wait: SIGINT/SIGTERM cuts the linger short so the
		// deferred teardown (server close, flight dump) still runs —
		// a bare sleep would ignore the signal until the window expired
		// (or die without dumping, losing the post-mortem evidence).
		fmt.Fprintf(os.Stderr, "loadgen: ops server lingering %s at http://%s\n", *opsLinger, srv.Addr())
		if sig := runflags.Linger(*opsLinger); sig != nil {
			fmt.Fprintf(os.Stderr, "loadgen: linger cut short by %s\n", sig)
			fr.Record(obs.EvSignal, -1, 0, fmt.Sprintf("linger cut short by %s", sig))
		}
	}
	if failed {
		return errFailed
	}
	return nil
}

// runRemote drives a memverifyd tenant with the same mirror-checked
// workload as the local mode: byte mismatches, violations and unexpected
// verification verdicts all exit nonzero. The tamper leg corrupts the
// remote tenant through the (daemon-armed) tamper endpoint and then
// demands that remote verification FAIL — detection over the wire.
func runRemote(base, tenant, workload string, workers, ops, batch, maxLen int,
	writeFrac float64, seed uint64, tamper int, verify bool, fr *obs.FlightRecorder) error {

	c, err := client.Dial(base, tenant)
	if err != nil {
		return err
	}
	defer c.Close()
	info := c.Info()
	if info.Failed {
		return fmt.Errorf("tenant %s refused service (recovery violation)", tenant)
	}
	stripe := c.Span() / uint64(workers)
	if stripe <= uint64(maxLen) {
		return fmt.Errorf("stripe %d too small for %dB operations; fewer workers or a larger tenant", stripe, maxLen)
	}
	fr.Record(obs.EvRunStart, -1, 0, fmt.Sprintf("remote=%s tenant=%s scheme=%s shards=%d workers=%d ops=%d workload=%s",
		base, tenant, info.Scheme, info.Shards, workers, ops, workload))

	// Zero the tenant before the workload. The per-worker mirrors start
	// zeroed; a local run always begins on a fresh store, but a remote
	// tenant may carry bytes from an earlier run, which would make every
	// mirror check a false mismatch.
	if err := zeroRemote(c); err != nil {
		return fmt.Errorf("resetting tenant %s: %w", tenant, err)
	}

	var failed bool
	start := time.Now()
	if !runConcurrent(remoteTarget{c}, workload, workers, ops, batch, maxLen, writeFrac, seed) {
		failed = true
	}
	elapsed := time.Since(start).Seconds()

	if tamper >= 0 {
		if tamper >= info.Shards {
			return fmt.Errorf("tenant %s has %d shards, cannot tamper shard %d", tenant, info.Shards, tamper)
		}
		if err := c.Tamper(tamper, 0, 0xFF); err != nil {
			return fmt.Errorf("remote tamper: %w", err)
		}
		fr.Record(obs.EvTamper, tamper, 0, "injected corruption via the tamper endpoint")
	}
	if verify && !failed {
		if err := c.Verify(); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: remote verification failed:", err)
			failed = true
		}
	}

	totalOps := uint64(workers) * uint64(ops)
	fmt.Printf("loadgen: remote=%s tenant=%s scheme=%s workload=%s shards=%d workers=%d ops=%d elapsed=%.3fs\n",
		base, tenant, info.Scheme, workload, info.Shards, workers, totalOps, elapsed)
	fmt.Printf("loadgen: ops_per_sec=%.1f\n", float64(totalOps)/elapsed)
	fr.Record(obs.EvRunEnd, -1, 0, fmt.Sprintf("remote failed=%t", failed))
	if failed {
		return errFailed
	}
	return nil
}

// zeroRemote writes zeros over the tenant's whole span in batched chunks
// sized to stay under the service's default batch limits.
func zeroRemote(c *client.Client) error {
	const chunk = 256 << 10
	zeros := make([]byte, chunk)
	b := c.NewBatch()
	pending := 0
	for off := uint64(0); off < c.Span(); off += chunk {
		n := uint64(chunk)
		if off+n > c.Span() {
			n = c.Span() - off
		}
		b.Store(off, zeros[:n])
		if pending++; pending == 16 {
			if err := b.Wait(); err != nil {
				return err
			}
			pending = 0
		}
	}
	return b.Wait()
}

// persistEvent adapts persist's protocol hook to the flight recorder;
// persistence events are store-wide, not shard-attributed. Returns nil
// when the recorder is disabled so persist skips the calls entirely.
func persistEvent(fr *obs.FlightRecorder) func(kind string, epoch uint64, detail string) {
	if fr == nil {
		return nil
	}
	return func(kind string, epoch uint64, detail string) { fr.Record(kind, -1, epoch, detail) }
}

// captureTrace returns the /trace capture closure: each shard's trace
// tail is copied on that shard's worker goroutine (or inline once the
// store is closed and the traces quiescent). nil when no recorders are
// attached — the endpoint then explains how to enable tracing.
func captureTrace(s *shard.Store, recs []*telemetry.Recorder) func(uint64) ([]*telemetry.Trace, error) {
	if recs == nil {
		return nil
	}
	return func(cycles uint64) ([]*telemetry.Trace, error) {
		out := make([]*telemetry.Trace, len(recs))
		for i := range recs {
			i := i
			s.WithShard(i, func(*core.Machine) { out[i] = recs[i].Trace.Tail(cycles) })
		}
		return out, nil
	}
}

// persistObs makes persistence counters visible to the live sampler
// without racing the checkpoint path: recovery stats are noted once at
// startup, and the checkpoint store's counters are snapshotted (on the
// goroutine driving the rounds) after every checkpoint attempt.
type persistObs struct {
	mu    sync.Mutex
	recov persist.Stats
	ckpt  persist.Stats
}

func (p *persistObs) noteRecovery(rec *persist.Recovery) {
	p.mu.Lock()
	p.recov.NoteRecovery(rec)
	p.mu.Unlock()
}

func (p *persistObs) setCkpt(st persist.Stats) {
	p.mu.Lock()
	p.ckpt = st
	p.mu.Unlock()
}

// fill publishes both halves into reg; recovery and checkpoint counters
// are disjoint, so Adding them into the same namespace never
// double-counts.
func (p *persistObs) fill(reg *telemetry.Registry) {
	p.mu.Lock()
	p.recov.Fill(reg)
	p.ckpt.Fill(reg)
	p.mu.Unlock()
}

// runConcurrent is the fully concurrent traffic phase: one goroutine per
// worker, mirror-checked reads, no persistence. The target may be the
// in-process store or a remote tenant — the workload, mirrors and
// pass/fail verdict are identical either way. Returns true on success.
func runConcurrent(s target, workload string, workers, ops, batch, maxLen int, writeFrac float64, seed uint64) bool {
	span := s.Span()
	stripe := span / uint64(workers)
	type mismatch struct {
		off  uint64
		err  error
		text string
	}
	results := make(chan mismatch, workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			base := uint64(w) * stripe
			mirror := make([]byte, stripe)
			gen, err := newOpGen(workload, int64(seed)<<8|int64(w), stripe, maxLen, writeFrac)
			if err != nil {
				results <- mismatch{err: err}
				return
			}
			type pending struct {
				off  uint64
				got  []byte
				want []byte
			}
			b := s.NewBatch()
			var reads []pending
			collect := func() *mismatch {
				if err := b.Wait(); err != nil {
					return &mismatch{err: err}
				}
				for _, r := range reads {
					for i := range r.got {
						if r.got[i] != r.want[i] {
							return &mismatch{off: r.off + uint64(i),
								text: fmt.Sprintf("read %#x, mirror holds %#x", r.got[i], r.want[i])}
						}
					}
				}
				reads = reads[:0]
				return nil
			}
			for op := 0; op < ops; op++ {
				off, length, write := gen.next()
				if write {
					p := make([]byte, length)
					gen.rng.Read(p)
					b.Store(base+off, p)
					copy(mirror[off:], p)
				} else {
					// The expected bytes are snapshotted at submit time:
					// per-shard FIFO order makes earlier writes to the
					// same addresses visible to this read.
					r := pending{off: base + off, got: make([]byte, length),
						want: append([]byte(nil), mirror[off:off+uint64(length)]...)}
					b.Load(r.off, r.got)
					reads = append(reads, r)
				}
				if (op+1)%batch == 0 {
					if m := collect(); m != nil {
						results <- *m
						return
					}
				}
			}
			if m := collect(); m != nil {
				results <- *m
				return
			}
			results <- mismatch{}
		}()
	}
	ok := true
	for w := 0; w < workers; w++ {
		m := <-results
		switch {
		case m.err != nil:
			fmt.Fprintln(os.Stderr, "loadgen: worker error:", m.err)
			ok = false
		case m.text != "":
			fmt.Fprintf(os.Stderr, "loadgen: MISMATCH at offset %d (shard %d): %s\n",
				m.off, s.ShardFor(m.off), m.text)
			ok = false
		}
	}
	return ok
}

// runPersistent is the checkpointing traffic phase. Workers advance in
// lockstep rounds of ckptEvery ops each; between rounds the store
// checkpoints through internal/persist (a checkpoint is a quiesced commit
// point, so rounds are driven serially from this goroutine — persistence
// runs trade worker parallelism for a deterministic epoch schedule).
// After a -restart recovery, mirrors are seeded from the recovered bytes.
func runPersistent(s *shard.Store, scfg shard.Config, dir, anchor, workload string,
	workers, ops, ckptEvery, batch, maxLen int, writeFrac float64, seed uint64,
	killAfter int, killStage, policy string, restarted bool,
	fr *obs.FlightRecorder, pobs *persistObs) error {

	span := s.Span()
	stripe := span / uint64(workers)
	if ckptEvery < 1 {
		return fmt.Errorf("checkpoint-every must be positive")
	}

	var ffs *persist.FaultFS
	popts := persist.Options{Dir: dir, AnchorPath: anchor, Policy: policy, OnEvent: persistEvent(fr)}
	if killAfter > 0 {
		ffs = persist.NewFaultFS(nil)
		popts.FS = ffs
		// Campaign runs should not sleep through real backoff.
		popts.Retry = persist.RetryPolicy{Attempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
	}
	st, err := persist.Open(popts)
	if err != nil {
		return err
	}
	defer st.Close()

	mirrors := make([][]byte, workers)
	gens := make([]*opGen, workers)
	for w := range mirrors {
		mirrors[w] = make([]byte, stripe)
		gen, err := newOpGen(workload, int64(seed)<<8|int64(w), stripe, maxLen, writeFrac)
		if err != nil {
			return err
		}
		gens[w] = gen
		if restarted {
			// The recovered store IS the ground truth now; seed the
			// mirror from it so read checks validate against restored
			// state.
			if err := s.LoadBytes(uint64(w)*stripe, mirrors[w]); err != nil {
				return fmt.Errorf("seeding mirror from recovered shard state: %w", err)
			}
		}
	}

	checkpoints := 0
	for done := 0; done < ops; done += ckptEvery {
		round := ckptEvery
		if done+round > ops {
			round = ops - done
		}
		for w := 0; w < workers; w++ {
			if err := persistRound(s, gens[w], mirrors[w], uint64(w)*stripe, round, batch); err != nil {
				return err
			}
		}
		checkpoints++
		if ffs != nil && checkpoints == killAfter {
			ffs.Kill(persist.KillRule{Stage: killStage})
		}
		epoch, err := st.Checkpoint(persist.StoreSource{S: s})
		pobs.setCkpt(st.Stats())
		if err != nil {
			if ffs != nil && ffs.Killed() {
				fr.Record(obs.EvKill, -1, st.Epoch(), fmt.Sprintf("died at stage %s during checkpoint %d", killStage, checkpoints))
				return fmt.Errorf("checkpoint %d: %w", checkpoints, errKilled)
			}
			return fmt.Errorf("checkpoint %d: %w", checkpoints, err)
		}
		fmt.Printf("loadgen: checkpoint %d sealed epoch %d\n", checkpoints, epoch)
	}

	pst := st.Stats()
	fmt.Printf("loadgen: persist checkpoints=%d wal_records=%d bytes_written=%d base_segments=%d delta_segments=%d retries=%d\n",
		pst.Checkpoints, pst.WALRecords, pst.BytesWritten, pst.BaseSegments, pst.DeltaSegments, pst.Retries)
	return nil
}

// persistRound submits one worker's round of mirror-checked operations
// and collects it.
func persistRound(s *shard.Store, gen *opGen, mirror []byte, base uint64, round, batch int) error {
	type pending struct {
		off  uint64
		got  []byte
		want []byte
	}
	b := s.NewBatch()
	var reads []pending
	collect := func() error {
		if err := b.Wait(); err != nil {
			return err
		}
		for _, r := range reads {
			for i := range r.got {
				if r.got[i] != r.want[i] {
					return fmt.Errorf("MISMATCH at offset %d (shard %d): read %#x, mirror holds %#x",
						r.off+uint64(i), s.ShardFor(r.off+uint64(i)), r.got[i], r.want[i])
				}
			}
		}
		reads = reads[:0]
		return nil
	}
	for op := 0; op < round; op++ {
		off, length, write := gen.next()
		if write {
			p := make([]byte, length)
			gen.rng.Read(p)
			b.Store(base+off, p)
			copy(mirror[off:], p)
		} else {
			r := pending{off: base + off, got: make([]byte, length),
				want: append([]byte(nil), mirror[off:off+uint64(length)]...)}
			b.Load(r.off, r.got)
			reads = append(reads, r)
		}
		if (op+1)%batch == 0 {
			if err := collect(); err != nil {
				return err
			}
		}
	}
	return collect()
}
