package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"memverify/internal/core"
	"memverify/internal/service"
	"memverify/internal/service/client"
	"memverify/internal/shard"
	"memverify/internal/telemetry"
)

const tenantName = "t0"

// svcConfig is the daemon's default tenant, persisted under dir with an
// anchor, with the tamper endpoint armed for the probe.
func svcConfig(p params, dir string) service.Config {
	tc := service.TenantConfig{
		Name: tenantName,
		Store: shard.Config{
			Machine:    machineConfig(p, core.SchemeCached),
			Shards:     p.workers,
			QueueDepth: p.queue,
		},
		PersistDir: filepath.Join(dir, tenantName),
		AnchorPath: filepath.Join(dir, "anchors", tenantName+".anchor"),
	}
	return service.Config{Tenants: []service.TenantConfig{tc}, AllowTamper: true}
}

// stack is one in-process daemon on a loopback listener and a client
// dialled to it over real TCP.
type stack struct {
	svc    *service.Service
	srv    *http.Server
	served chan error
	c      *client.Client
}

// startStack builds (or recovers) the service and dials it. wrap, when
// set, sits between the listener and the service's handler: the traced
// run's span recorder. The time spent in service.New is returned apart:
// on a persisted directory it is the recovery.
func startStack(cfg service.Config, wrap func(http.Handler) http.Handler) (*stack, time.Duration, error) {
	t0 := time.Now()
	svc, err := service.New(cfg)
	built := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	h := svc.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/", h)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, 0, fmt.Errorf("listen: %w", err)
	}
	s := &stack{svc: svc, srv: &http.Server{Handler: mux}, served: make(chan error, 1)}
	go func() { s.served <- s.srv.Serve(ln) }()
	s.c, err = client.Dial(ln.Addr().String(), tenantName)
	if err != nil {
		s.stop() //nolint:errcheck // the dial error is the one to report
		return nil, 0, err
	}
	return s, built, nil
}

// stop drains the server, waits for its goroutine and closes the stores.
func (s *stack) stop() error {
	if s.c != nil {
		s.c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.svc.Close()
	return err
}

func (s *stack) newBatch(int) batcher         { return s.c.NewBatch() }
func (s *stack) verify() error                { return s.c.Verify() }
func (s *stack) fill(reg *telemetry.Registry) { s.svc.Fill(reg) }
func (s *stack) stripe() uint64               { return s.c.ShardSpan() }

// openStack is the opener of the service workloads.
func openStack(p params) opener {
	return func(dir string) (system, time.Duration, error) {
		st, built, err := startStack(svcConfig(p, dir), nil)
		if err != nil {
			return nil, 0, err
		}
		if h := st.svc.Health(); h.HaltedShards > 0 || h.PendingViolations > 0 {
			st.stop() //nolint:errcheck // the health is the error to report
			return nil, 0, fmt.Errorf("service on %s is not clean: %+v", dir, h)
		}
		return st, built, nil
	}
}

func (s *stack) close() error { return s.stop() }

func (s *stack) checkpoint() error {
	_, err := s.c.Checkpoint()
	return err
}

// svcLoad is the foreground of the service workloads: the driver's batches.
type svcLoad struct {
	wl   *workload
	p    params
	seed uint64
}

func (l svcLoad) warm(d *driver)            { d.run(l.wl.warmBatches, false, false) }
func (l svcLoad) slice(d *driver)           { d.run(l.wl.sliceBatches, true, false) }
func (l svcLoad) lats(d *driver) [][]uint32 { return d.lats() }
func (l svcLoad) round(*driver)             {}

func (l svcLoad) sliceOps() float64 {
	return float64(l.p.workers * l.wl.sliceBatches * l.wl.batchOps)
}

// simulated reads the machines' cycles over the count window and replays
// the window's op stream, untimed, on bare base-scheme machines: the
// denominator of the paper's headline ratio.
func (l svcLoad) simulated(r *report, win simCounters) error {
	r.set("sim_cycles_per_op", float64(win.cycles)/windowOps(l.wl, l.p))
	r.set("extra_reads_per_miss", ratio(float64(win.extraReads), float64(win.l2Misses)))
	base, err := replayWindow(l.wl, l.p, l.seed, &r.tally)
	if err != nil {
		return err
	}
	r.set("sim_overhead_x", ratio(float64(win.cycles), float64(base.cycles)))
	return nil
}

const tamperOff = 4096 // the byte of a stripe the tamper probe flips

func (s *stack) tamper(w *worker) error {
	if err := s.c.Tamper(w.id, tamperOff, 0xFF); err != nil {
		return fmt.Errorf("tamper: %w", err)
	}
	var b [1]byte
	err := s.c.LoadBytes(w.base+tamperOff, b[:])
	var api *service.APIError
	if !errors.As(err, &api) || api.Kind != service.KindViolation {
		return fmt.Errorf("tampered byte was served (read returned %v)", err)
	}
	return nil
}

// replayWindow runs set-up and the count window on bare base-scheme
// machines and returns the window's counters.
func replayWindow(wl *workload, p params, seed uint64, t *tally) (simCounters, error) {
	ms, err := newMachines(p, core.SchemeBase)
	if err != nil {
		return simCounters{}, err
	}
	pr := prepare(ms, wl, p, seed, 0)
	pr.d.run(wl.warmBatches, false, false)
	for n := 1; n <= wl.countSlices; n++ {
		pr.d.run(wl.sliceBatches, false, false)
		if n%wl.ckptEvery == 0 {
			ms.flush() // where the measured stack sealed a checkpoint, which flushes
		}
	}
	t.add(pr.d.tally())
	return counters(ms).sub(pr.open), nil
}
