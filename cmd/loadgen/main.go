// Command loadgen drives read/write traffic at a memverifyd tenant over
// the wire and reports verified throughput. Every read is checked against
// a per-worker mirror of the bytes the tenant should hold, and the final
// region is re-verified through the daemon's hash machinery, so a nonzero
// exit means a real integrity or consistency failure — the CI service
// gate relies on that.
//
// Traffic shape is selected with -workload: the default mixed uniform
// traffic, plus the disk-style generators the cloud-storage literature
// assumes — seq (streaming), zipf (hot-spot skew) and appendlog
// (append-only writes with trailing reads). All are deterministic per
// seed.
//
// The tamper leg (-tamper N) corrupts shard N through the daemon's armed
// tamper endpoint after the traffic phase and then demands that remote
// verification fail — detection over the wire. Persistence, the violation
// policy and the live ops surface are the daemon's (memverifyd -persist,
// -policy, /metrics and friends), not loadgen's.
//
// Usage:
//
//	loadgen -remote http://127.0.0.1:8380 -tenant t0 -workers 25 -ops 10000
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"memverify/internal/profiling"
	"memverify/internal/service/client"
)

// errFailed signals a failure whose message was already printed.
var errFailed = errors.New("failed")

// errUsage signals a command line that names no daemon.
var errUsage = errors.New("-remote is required: loadgen drives a memverifyd instance over the wire")

func main() {
	err := run()
	switch {
	case err == nil:
	case errors.Is(err, errFailed):
		os.Exit(1)
	case errors.Is(err, errUsage):
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		flag.Usage()
		os.Exit(2)
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
	workers := flag.Int("workers", 4, "concurrent traffic generators (each owns a disjoint stripe)")
	ops := flag.Int("ops", 20_000, "operations per worker")
	writeFrac := flag.Float64("write-frac", 0.5, "fraction of operations that are writes")
	maxLen := flag.Int("max-len", 256, "maximum bytes per operation")
	batch := flag.Int("batch", 16, "operations in flight per worker before completion is collected")
	seed := flag.Uint64("seed", 1, "traffic seed")
	tamper := flag.Int("tamper", -1, "corrupt this shard through the tamper endpoint after the traffic phase (expect a nonzero exit)")
	verify := flag.Bool("verify", true, "re-verify the whole tenant after the traffic phase")
	workload := flag.String("workload", "mixed", "traffic shape: mixed, seq, zipf, appendlog")
	remote := flag.String("remote", "", "the memverifyd instance to drive (URL or host:port; required)")
	tenant := flag.String("tenant", "t0", "the tenant to drive")
	prof := profiling.AddFlags()
	flag.Parse()

	if *remote == "" {
		return errUsage
	}
	if *workers < 1 || *ops < 1 || *batch < 1 || *maxLen < 1 {
		return fmt.Errorf("workers, ops, batch and max-len must be positive")
	}
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer stopProf()

	c, err := client.Dial(*remote, *tenant)
	if err != nil {
		return err
	}
	defer c.Close()
	info := c.Info()
	if info.Failed {
		return fmt.Errorf("tenant %s refused service (recovery violation)", *tenant)
	}
	stripe := c.Span() / uint64(*workers)
	if stripe <= uint64(*maxLen) {
		return fmt.Errorf("stripe %d too small for %dB operations; fewer workers or a larger tenant", stripe, *maxLen)
	}

	// Zero the tenant before the workload. The per-worker mirrors start
	// zeroed, but a tenant may carry bytes from an earlier run, which
	// would make every mirror check a false mismatch.
	if err := zeroRemote(c); err != nil {
		return fmt.Errorf("resetting tenant %s: %w", *tenant, err)
	}

	start := time.Now()
	failed := !runConcurrent(c, *workload, *workers, *ops, *batch, *maxLen, *writeFrac, *seed)
	elapsed := time.Since(start).Seconds()

	if *tamper >= 0 {
		if *tamper >= info.Shards {
			return fmt.Errorf("tenant %s has %d shards, cannot tamper shard %d", *tenant, info.Shards, *tamper)
		}
		if err := c.Tamper(*tamper, 0, 0xFF); err != nil {
			return fmt.Errorf("remote tamper: %w", err)
		}
	}
	if *verify && !failed {
		if err := c.Verify(); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: remote verification failed:", err)
			failed = true
		}
	}

	totalOps := uint64(*workers) * uint64(*ops)
	fmt.Printf("loadgen: remote=%s tenant=%s scheme=%s workload=%s shards=%d workers=%d ops=%d elapsed=%.3fs\n",
		*remote, *tenant, info.Scheme, *workload, info.Shards, *workers, totalOps, elapsed)
	fmt.Printf("loadgen: ops_per_sec=%.1f\n", float64(totalOps)/elapsed)
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

// runConcurrent is the traffic phase: one goroutine per worker, each
// driving its own stripe with mirror-checked reads. Returns true on
// success.
func runConcurrent(c *client.Client, workload string, workers, ops, batch, maxLen int, writeFrac float64, seed uint64) bool {
	stripe := c.Span() / uint64(workers)
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
			b := c.NewBatch()
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
				m.off, c.ShardFor(m.off), m.text)
			ok = false
		}
	}
	return ok
}
