package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"memverify/internal/telemetry"
)

// Options configures the ops server. Everything beyond Listen is
// optional: endpoints whose closure is absent answer 404 with a hint
// instead of being silently wrong.
type Options struct {
	// Listen is the TCP address to bind, e.g. "127.0.0.1:9090" or
	// "127.0.0.1:0" for an ephemeral port (CI uses :0 and greps the
	// logged URL).
	Listen string
	// Fill snapshots the driver's live counters into a fresh registry.
	// It runs on the sampler goroutine and on scrape handlers and must be
	// safe to call concurrently with the workload.
	Fill func(*telemetry.Registry)
	// SampleEvery / RingPoints configure the sampler (zero selects
	// DefaultSampleEvery / DefaultRingPoints). No sampler is created when
	// Fill is nil.
	SampleEvery time.Duration
	RingPoints  int
	// OnSample, when set, receives every completed sampling round — the
	// loadgen progress line.
	OnSample func(Sample)
	// Health produces liveness snapshots for /healthz and /readyz. When
	// nil both endpoints report healthy (the driver has no failure modes
	// wired).
	Health HealthFunc
	// Flight is dumped by /flightrecord. A nil recorder serves an empty
	// dump.
	Flight *FlightRecorder
	// CaptureTrace captures a bounded tail (last `cycles` simulated
	// cycles, 0 = everything retained) of the live traces for
	// /trace?cycles=N. It must do its own synchronization (the shard
	// store runs Tail on the owning workers). Nil means tracing is off.
	CaptureTrace func(cycles uint64) ([]*telemetry.Trace, error)
	// Logf, when set, receives one line per lifecycle event (listen URL,
	// shutdown). The drivers pass a stderr logger.
	Logf func(format string, args ...any)
}

// Server is the live ops surface: /metrics, /vars, /healthz, /readyz,
// /flightrecord, /trace and /debug/pprof over one listener, with the
// sampler (when configured) ticking underneath.
type Server struct {
	opts    Options
	sampler *Sampler
	ln      net.Listener
	http    *http.Server

	mu        sync.Mutex
	published *telemetry.Registry
}

// Header and idle limits of every http.Server the repo's binaries run. A
// peer gets ReadHeaderTimeout to finish sending a request's header block,
// so a connection that opens and then trickles (or sends nothing) is shed
// instead of holding a goroutine and a descriptor forever; an idle
// keep-alive connection is closed after IdleTimeout. Bodies and handlers
// are deliberately not bounded here: a batch near the size limit over a
// slow link, a /debug/pprof/profile and a /trace capture all run long.
const (
	ReadHeaderTimeout = 5 * time.Second
	IdleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns an http.Server for h with those limits set.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: ReadHeaderTimeout, IdleTimeout: IdleTimeout}
}

// Start binds the listener, starts the sampler (when Fill is given) and
// serves in the background. The returned server's Addr reports the bound
// address.
func Start(opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", opts.Listen)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", opts.Listen, err)
	}
	s, mux := NewEmbedded(opts)
	s.ln = ln
	s.http = NewHTTPServer(mux)
	go s.http.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown
	s.logf("ops: listening on http://%s", ln.Addr())
	return s, nil
}

// NewEmbedded builds the ops surface without binding a listener: the
// returned handler serves the same endpoint set as Start and the sampler
// (when Fill is given) is already ticking. A daemon that owns its own
// listener (memverifyd) mounts the handler on its mux; Addr reports ""
// and Close only stops the sampler.
func NewEmbedded(opts Options) (*Server, http.Handler) {
	s := &Server{opts: opts}
	if opts.Fill != nil {
		s.sampler = NewSampler(opts.Fill, opts.SampleEvery, opts.RingPoints)
		s.sampler.OnSample = opts.OnSample
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/vars", s.handleVars)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/flightrecord", s.handleFlight)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s.sampler.Start()
	return s, mux
}

func (s *Server) logf(format string, args ...any) {
	if s != nil && s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Addr returns the bound address (host:port). Nil-safe.
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Sampler returns the server's sampler (nil when Fill was not given).
// Nil-safe.
func (s *Server) Sampler() *Sampler {
	if s == nil {
		return nil
	}
	return s.sampler
}

// StopSampling halts the sampler goroutine without shutting the HTTP
// surface down — the drivers call this before tearing the store down, so
// no fill races the teardown while /metrics keeps serving the last (or
// published) snapshot. Nil-safe.
func (s *Server) StopSampling() {
	if s == nil {
		return
	}
	s.sampler.Stop()
}

// Publish installs the run's final authoritative registry: from now on
// /metrics and /vars serve it instead of the sampler's last snapshot
// (the sampler's derived gauges stay visible). Drivers publish after the
// store closed and the end-of-run registry is complete. Nil-safe.
func (s *Server) Publish(reg *telemetry.Registry) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.published = reg
	s.mu.Unlock()
}

// Close stops the sampler and the HTTP server (when the server owns one —
// embedded surfaces only stop the sampler). Nil-safe.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.sampler.Stop()
	if s.http == nil {
		return nil
	}
	return s.http.Close()
}

// snapshot returns the registry to serve: the published final state when
// set, otherwise a merge of the sampler's most recent snapshot (taking
// one eagerly if none exists yet so the first scrape is never empty).
func (s *Server) snapshot() *telemetry.Registry {
	s.mu.Lock()
	published := s.published
	s.mu.Unlock()
	out := telemetry.NewRegistry()
	if published != nil {
		published.MergeInto(out)
		return out
	}
	if s.sampler != nil {
		if !s.sampler.SnapshotInto(out) {
			s.sampler.SampleNow()
			s.sampler.SnapshotInto(out)
		}
	}
	return out
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := s.snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := WriteExposition(w, reg, s.sampler.DerivedGauges()); err != nil {
		s.logf("ops: /metrics: %v", err)
	}
}

func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	reg := s.snapshot()
	w.Header().Set("Content-Type", "application/json")
	if err := reg.WriteJSON(w); err != nil {
		s.logf("ops: /vars: %v", err)
	}
}

func (s *Server) health() Health {
	if s.opts.Health == nil {
		return Health{}
	}
	return s.opts.Health()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.health()
	w.Header().Set("Content-Type", "application/json")
	if h.State() == Unhealthy {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	h.WriteJSON(w) //nolint:errcheck // best-effort body
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h := s.health()
	w.Header().Set("Content-Type", "application/json")
	if !h.Ready() {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	h.WriteJSON(w) //nolint:errcheck // best-effort body
}

func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.opts.Flight.WriteJSON(w); err != nil {
		s.logf("ops: /flightrecord: %v", err)
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.opts.CaptureTrace == nil {
		http.Error(w, "tracing not enabled for this run (pass -trace or -metrics to attach recorders)",
			http.StatusNotFound)
		return
	}
	cycles := uint64(0)
	if q := r.URL.Query().Get("cycles"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad cycles %q: %v", q, err), http.StatusBadRequest)
			return
		}
		cycles = v
	}
	traces, err := s.opts.CaptureTrace(cycles)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := telemetry.WriteChromeTraces(w, traces...); err != nil {
		s.logf("ops: /trace: %v", err)
	}
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, "memverify ops endpoints:\n"+
		"  /metrics       Prometheus text exposition (registry + sampler)\n"+
		"  /vars          full registry snapshot as sorted-key JSON\n"+
		"  /healthz       liveness (503 when every shard halted)\n"+
		"  /readyz        readiness (503 during recovery or full halt)\n"+
		"  /flightrecord  flight-recorder dump as JSON\n"+
		"  /trace?cycles=N  Chrome trace of the last N simulated cycles\n"+
		"  /debug/pprof/  Go runtime profiles\n")
}
