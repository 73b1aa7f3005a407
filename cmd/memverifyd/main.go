// Command memverifyd serves verified memory over HTTP: a multi-tenant
// daemon hosting one sharded verification store (internal/shard) per
// tenant behind the internal/service batch protocol, with the live ops
// surface (/metrics, /vars, /healthz, /readyz, /flightrecord,
// /debug/pprof) mounted on the same listener.
//
// Tenants are declared with -tenants, a comma-separated list of
// name[:key=value[;key=value]...] specs; each tenant gets its own region,
// scheme and violation policy, and a violation in one tenant 503s only
// that tenant — the paper's containment story at service granularity. With -persist ROOT each tenant checkpoints into
// ROOT/<name> (anchored at ROOT/anchors/<name>.anchor) and recovers at
// boot, so tenants survive kill/restart.
//
// SIGINT/SIGTERM shut the daemon down gracefully: in-flight requests
// drain, sampling stops, persisted tenants seal a final checkpoint, the
// stores close, and the flight recorder dumps to -flight.
//
// Usage:
//
//	memverifyd -listen 127.0.0.1:8380 -tenants "alpha,bravo:policy=halt"
//	memverifyd -listen 127.0.0.1:0 -tenants t0,t1,t2,t3 -persist /var/lib/memverifyd
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"memverify/internal/core"
	"memverify/internal/obs"
	"memverify/internal/runflags"
	"memverify/internal/service"
	"memverify/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "memverifyd:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := core.DefaultConfig()
	listen := flag.String("listen", "127.0.0.1:8380", "TCP address to serve on (127.0.0.1:0 for an ephemeral port)")
	tenants := flag.String("tenants", "t0", "tenant specs: name[:key=val[;key=val]...],... (keys: scheme, shards, protected, l2, policy, alg, chunk, queue)")
	scheme := flag.String("scheme", "c", "default verification scheme: naive, c, m (i runs in the simulator only)")
	shards := flag.Int("shards", 4, "default shards per tenant")
	protected := flag.Uint64("protected", 8<<20, "default protected bytes per tenant")
	l2 := flag.Int("l2", 256<<10, "default per-shard L2 size in bytes")
	policy := flag.String("policy", "record", "default violation policy: record or halt")
	alg := flag.String("alg", cfg.HashAlg, "default hash algorithm: sha256, md5, sha1, fnv128")
	queueDepth := flag.Int("queue-depth", 64, "default per-shard request queue depth")
	persistRoot := flag.String("persist", "", "checkpoint every tenant into ROOT/<name>, anchored at ROOT/anchors/<name>.anchor; tenants recover at boot")
	ckptEvery := flag.Duration("checkpoint-every", 0, "seal a checkpoint for every persisted tenant at this interval (0 = only at shutdown)")
	admitTimeout := flag.Duration("admit-timeout", time.Second, "max wait for batch admission before shedding with 429")
	maxOps := flag.Int("max-batch-ops", service.DefaultMaxBatchOps, "max operations per batch request (below 16777216)")
	maxBytes := flag.Int("max-batch-bytes", service.DefaultMaxBatchBytes, "max payload bytes per batch request")
	allowTamper := flag.Bool("allow-tamper", false, "arm POST /v1/t/{name}/tamper (test/CI adversary endpoint — never in production)")
	sampleEvery := flag.Duration("sample-every", obs.DefaultSampleEvery, "telemetry sampling interval for the ops surface's windowed rates")
	flight := flag.String("flight", "", "dump the flight recorder to this JSON file on exit")
	flag.Parse()

	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "memverifyd: "+format+"\n", args...) }

	// The default machine template every tenant starts from; specs
	// override per tenant.
	cfg.Scheme = core.Scheme(*scheme)
	cfg.Benchmark = trace.Uniform("memverifyd", 32<<10)
	cfg.Benchmark.CodeSet = 4 << 10
	cfg.ProtectedBytes = *protected
	cfg.L2Size = *l2
	cfg.HashAlg = *alg
	cfg.ViolationPolicy = *policy
	cfg.Functional = true
	cfg.ChunkBlocks = 1
	base := service.TenantConfig{}
	base.Store.Machine = cfg
	base.Store.Shards = *shards
	base.Store.QueueDepth = *queueDepth

	tcs, err := service.ParseTenants(*tenants, base)
	if err != nil {
		return err
	}
	if *persistRoot != "" {
		for i := range tcs {
			tcs[i].PersistDir = filepath.Join(*persistRoot, tcs[i].Name)
			tcs[i].AnchorPath = filepath.Join(*persistRoot, "anchors", tcs[i].Name+".anchor")
		}
	}

	fr := obs.NewFlightRecorder(obs.DefaultFlightEvents)
	defer func() {
		if *flight != "" {
			if err := fr.DumpFile(*flight); err != nil {
				logf("flight dump: %v", err)
			}
		}
	}()

	svc, err := service.New(service.Config{
		Tenants:       tcs,
		AdmitTimeout:  *admitTimeout,
		MaxBatchOps:   *maxOps,
		MaxBatchBytes: *maxBytes,
		AllowTamper:   *allowTamper,
		Flight:        fr,
		Logf:          logf,
	})
	if err != nil {
		return err
	}
	defer svc.Close()

	// The ops surface shares the service's listener: one port serves both
	// the batch protocol and the scrape/health/pprof endpoints.
	opsSrv, opsHandler := obs.NewEmbedded(obs.Options{
		Fill:        svc.Fill,
		SampleEvery: *sampleEvery,
		Health:      svc.Health,
		Flight:      fr,
		Logf:        logf,
	})
	defer opsSrv.Close()

	mux := http.NewServeMux()
	mux.Handle("/v1/", svc.Handler())
	mux.Handle("/", opsHandler)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *listen, err)
	}
	httpSrv := obs.NewHTTPServer(mux)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	logf("serving on http://%s (tenants: %v)", ln.Addr(), svc.Tenants())
	fr.Record(obs.EvRunStart, -1, 0, fmt.Sprintf("listen=%s tenants=%v persist=%q", ln.Addr(), svc.Tenants(), *persistRoot))

	// Periodic checkpoints for persisted tenants.
	ckptDone := make(chan struct{})
	ckptStop := make(chan struct{})
	go func() {
		defer close(ckptDone)
		if *ckptEvery <= 0 || *persistRoot == "" {
			<-ckptStop
			return
		}
		tick := time.NewTicker(*ckptEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if err := svc.Checkpoint(); err != nil {
					logf("periodic checkpoint: %v", err)
				}
			case <-ckptStop:
				return
			}
		}
	}()

	// Block until a signal (or the listener dying underneath us).
	sigCh, stopNotify := runflags.NotifyInterrupt()
	defer stopNotify()
	select {
	case sig := <-sigCh:
		logf("received %s, shutting down", sig)
		fr.Record(obs.EvSignal, -1, 0, fmt.Sprintf("received %s, shutting down", sig))
	case err := <-serveErr:
		close(ckptStop)
		<-ckptDone
		return fmt.Errorf("serve: %w", err)
	}

	// Graceful teardown: stop admitting, drain in-flight requests, stop
	// the sampler (fills must not race the store teardown), seal a final
	// epoch for persisted tenants, close the stores, dump the flight.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logf("shutdown: %v", err)
	}
	close(ckptStop)
	<-ckptDone
	opsSrv.StopSampling()
	if *persistRoot != "" {
		if err := svc.Checkpoint(); err != nil {
			logf("final checkpoint: %v", err)
		} else {
			logf("final checkpoint sealed")
		}
	}
	fr.Record(obs.EvRunEnd, -1, 0, "graceful shutdown complete")
	logf("shutdown complete")
	return nil
}
