package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memverify/internal/core"
	"memverify/internal/integrity"
	"memverify/internal/obs"
	"memverify/internal/persist"
	"memverify/internal/shard"
	"memverify/internal/telemetry"
)

// TenantConfig describes one protected region the service hosts: its own
// sharded store (scheme, violation policy, geometry all per-tenant) and, optionally, its own persistence directory and trusted
// anchor.
type TenantConfig struct {
	// Name addresses the tenant on the wire (/v1/t/{name}/...). Names
	// must match [a-z0-9][a-z0-9_]* so they embed directly into metric
	// names without sanitization collisions.
	Name string

	// Store is the tenant's full shard configuration. Machine.Functional
	// is required (the service serves real bytes).
	Store shard.Config

	// PersistDir, when set, checkpoints the tenant through
	// internal/persist and recovers it at service start; a checkpoint
	// that exhausts its I/O retries poisons the tenant's store (persist's
	// halt degradation). AnchorPath names the tenant's external
	// trusted-storage anchor (see persist.Options.AnchorPath).
	PersistDir string
	AnchorPath string
}

// Config assembles a Service.
type Config struct {
	Tenants []TenantConfig

	// AdmitTimeout bounds how long a batch waits for admission when the
	// tenant's queue capacity (shards × queue depth) is exhausted before
	// the service sheds it with 429. Zero selects one second.
	AdmitTimeout time.Duration

	// MaxBatchOps / MaxBatchBytes bound one request (zero selects the
	// protocol defaults). New refuses a MaxBatchOps of 1<<24 or more.
	MaxBatchOps   int
	MaxBatchBytes int

	// AllowTamper arms POST /v1/t/{name}/tamper — the adversary endpoint
	// the tamper legs use. Off by default: a production surface must not
	// expose a corruption primitive.
	AllowTamper bool

	// Flight, when set, receives violation, halt and recovery events as
	// they happen.
	Flight *obs.FlightRecorder

	// Logf, when set, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

// maxSniffedOps bounds Config.MaxBatchOps. A batch reply sets no
// Content-Type and relies on net/http's sniffer, which names a body with a
// 0x00 in its first bytes application/octet-stream; the top byte of the
// op count in "MVR1" | nops(u32 LE) is that 0x00 only below 2^24 ops.
const maxSniffedOps = 1 << 24

// tenant is one hosted region: the store, its admission semaphore, and
// the optional persistence handle.
type tenant struct {
	name  string
	cfg   TenantConfig
	store *shard.Store
	sem   *sem

	// persistMu serializes checkpoints (a checkpoint is a quiesced
	// commit point; concurrent checkpoints would interleave epochs).
	persistMu sync.Mutex
	pstore    *persist.Store
	recovery  *persist.Recovery

	// statsMu guards pstats and epoch, a snapshot of the persistence
	// counters the sampler reads and of the last sealed-intent epoch the
	// tenant listing reports: taken at build time and after every
	// checkpoint, so neither reader races the checkpoint path's live
	// state.
	statsMu sync.Mutex
	pstats  persist.Stats
	epoch   uint64

	// faulted marks, per shard, a fault the service has recorded
	// (noteFault).
	faulted []atomic.Bool

	// failed marks a tenant whose recovery classified as violation: the
	// persisted state must not be trusted, so every request is refused
	// with 503/violation until an operator intervenes. The other tenants
	// are unaffected — recovery containment, same shape as halt
	// containment.
	failed atomic.Bool

	// states pools the batch endpoint's per-request state (*batchState).
	states sync.Pool

	batches  atomic.Uint64
	ops      atomic.Uint64
	bytes    atomic.Uint64
	rejected atomic.Uint64
}

// Service hosts the tenants behind one HTTP handler.
type Service struct {
	cfg     Config
	tenants map[string]*tenant
	order   []string // sorted tenant names, for deterministic iteration
}

// New builds the tenants — recovering any persisted ones — and returns
// the service. A tenant whose recovery classifies as violation is kept
// (listed, health-visible) but refuses requests; a hard error (bad
// config, a store setting shard refuses, unreadable directory,
// fingerprint mismatch) fails New, wrapped with the tenant's name.
func New(cfg Config) (*Service, error) {
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("service: no tenants configured")
	}
	if cfg.AdmitTimeout <= 0 {
		cfg.AdmitTimeout = time.Second
	}
	if cfg.MaxBatchOps >= maxSniffedOps {
		return nil, fmt.Errorf("service: MaxBatchOps %d: must be below %d, so that every batch reply sniffs as application/octet-stream",
			cfg.MaxBatchOps, maxSniffedOps)
	}
	s := &Service{cfg: cfg, tenants: make(map[string]*tenant, len(cfg.Tenants))}
	for _, tc := range cfg.Tenants {
		if err := checkTenantName(tc.Name); err != nil {
			s.Close()
			return nil, err
		}
		if _, dup := s.tenants[tc.Name]; dup {
			s.Close()
			return nil, fmt.Errorf("service: duplicate tenant %q", tc.Name)
		}
		t, err := s.buildTenant(tc)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("service: tenant %s: %w", tc.Name, err)
		}
		s.tenants[tc.Name] = t
		s.order = append(s.order, tc.Name)
	}
	sort.Strings(s.order)
	return s, nil
}

func checkTenantName(name string) error {
	if name == "" {
		return fmt.Errorf("service: empty tenant name")
	}
	for i, r := range name {
		ok := r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_' && i > 0
		if !ok {
			return fmt.Errorf("service: tenant name %q: want [a-z0-9][a-z0-9_]*", name)
		}
	}
	return nil
}

func (s *Service) buildTenant(tc TenantConfig) (*tenant, error) {
	t := &tenant{name: tc.Name, cfg: tc}
	scfg := tc.Store
	name := tc.Name
	fr := s.cfg.Flight
	prev := scfg.OnViolation
	scfg.OnViolation = func(sh int, v *integrity.ViolationError, halted bool) {
		if fr != nil {
			fr.Record(obs.EvViolation, sh, 0, fmt.Sprintf("tenant %s: %s", name, v.Error()))
			if halted {
				fr.Record(obs.EvShardHalt, sh, 0, fmt.Sprintf("tenant %s: halt policy tripped", name))
			}
		}
		if prev != nil {
			prev(sh, v, halted)
		}
	}

	if tc.PersistDir == "" {
		st, err := shard.New(scfg)
		if err != nil {
			return nil, err
		}
		t.store = st
	} else {
		popts := persist.Options{
			Dir:        tc.PersistDir,
			AnchorPath: tc.AnchorPath,
			OnEvent: func(kind string, epoch uint64, detail string) {
				if fr != nil {
					fr.Record(kind, -1, epoch, "tenant "+name+": "+detail)
				}
			},
		}
		st, rec, err := persist.RecoverStore(popts, scfg)
		if err != nil {
			return nil, err
		}
		t.store, t.recovery = st, rec
		s.logf("service: tenant %s: recovery outcome=%s epoch=%d", name, rec.Outcome, rec.Epoch)
		if rec.Outcome == persist.OutcomeViolation {
			// The directory (or its anchor) is lying; keep the tenant
			// visible but refuse to serve from it.
			t.failed.Store(true)
			s.logf("service: tenant %s: REFUSING SERVICE: %s", name, rec.Detail)
		} else {
			ps, err := persist.Open(popts)
			if err != nil {
				st.Close()
				return nil, err
			}
			t.pstore, t.epoch = ps, ps.Epoch()
			t.pstats.NoteRecovery(rec)
		}
	}
	depth := scfg.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	t.sem = newSem(t.store.Shards() * depth)
	t.faulted = make([]atomic.Bool, t.store.Shards())
	t.states.New = func() any { return &batchState{sb: t.store.NewBatch()} }
	return t, nil
}

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Tenants returns the tenant names in sorted order.
func (s *Service) Tenants() []string { return append([]string(nil), s.order...) }

// Checkpoint seals one epoch for every persisted, serving tenant and
// joins the per-tenant errors. Tenants without persistence are skipped.
func (s *Service) Checkpoint() error {
	var errs []error
	for _, name := range s.order {
		t := s.tenants[name]
		if t.pstore == nil || t.failed.Load() {
			continue
		}
		if _, err := t.checkpoint(); err != nil {
			s.noteFault(t, err)
			errs = append(errs, fmt.Errorf("tenant %s: %w", name, err))
		}
	}
	return errors.Join(errs...)
}

func (t *tenant) checkpoint() (uint64, error) {
	t.persistMu.Lock()
	defer t.persistMu.Unlock()
	epoch, err := t.pstore.Checkpoint(persist.StoreSource{S: t.store})
	st, sealed := t.pstore.Stats(), t.pstore.Epoch()
	t.statsMu.Lock()
	t.pstats, t.epoch = st, sealed
	t.statsMu.Unlock()
	return epoch, err
}

// HoldAdmission drains one tenant's whole admission capacity and returns
// a release function: while held, every batch on that tenant sheds with
// 429 after the admission window — the quiesce primitive (drain a tenant
// before maintenance, or saturate it deterministically in tests).
// Release is idempotent. Unknown tenants get a no-op.
func (s *Service) HoldAdmission(name string) func() {
	t, ok := s.tenants[name]
	if !ok {
		return func() {}
	}
	held, _ := t.sem.acquire(t.sem.cap, s.cfg.AdmitTimeout)
	var once sync.Once
	return func() { once.Do(func() { t.sem.release(held) }) }
}

// Rejected returns how many batches the tenant has shed with 429 (0 for
// unknown tenants).
func (s *Service) Rejected(name string) uint64 {
	t, ok := s.tenants[name]
	if !ok {
		return 0
	}
	return t.rejected.Load()
}

// Close shuts every tenant down: stores drain and close, persistence
// handles close. It does not checkpoint — callers wanting a final sealed
// epoch call Checkpoint first, while the stores still serve.
func (s *Service) Close() {
	for _, t := range s.tenants {
		if t.store != nil {
			t.store.Close()
		}
		if t.pstore != nil {
			t.pstore.Close() //nolint:errcheck // teardown
		}
	}
}

// Health merges the per-tenant snapshots: degraded while any tenant has a
// halted shard (or refused recovery), unhealthy only when every shard of
// every tenant is down — the per-tenant containment contract, readable
// from one probe.
func (s *Service) Health() obs.Health {
	hs := make([]obs.Health, 0, len(s.order))
	for _, name := range s.order {
		t := s.tenants[name]
		n, halted, viol := t.store.Health()
		h := obs.Health{Shards: n, HaltedShards: halted, PendingViolations: viol}
		if t.failed.Load() {
			// A refused tenant serves nothing: all of its shards count
			// as down so one failed tenant degrades (not kills) the
			// service.
			h.HaltedShards = n
			h.Detail = fmt.Sprintf("tenant %s: recovery violation, refusing service", name)
		} else if halted > 0 {
			h.Detail = fmt.Sprintf("tenant %s: %d/%d shards halted", name, halted, n)
		}
		hs = append(hs, h)
	}
	return obs.MergeHealth(hs...)
}

// Fill snapshots the whole service into reg: every tenant's store
// (counters accumulate across tenants, like across shards), every
// persistence layer, service-level admission counters and per-tenant
// attribution gauges.
func (s *Service) Fill(reg *telemetry.Registry) {
	var batches, ops, bytes, rejected uint64
	for _, name := range s.order {
		t := s.tenants[name]
		t.store.FillRegistry(reg)
		if t.pstore != nil {
			t.statsMu.Lock()
			st := t.pstats
			t.statsMu.Unlock()
			st.Fill(reg)
		}
		n, halted, viol := t.store.Health()
		failed := 0.0
		if t.failed.Load() {
			failed, halted = 1.0, n
		}
		p := "service.tenant." + name
		reg.SetGauge(p+".halted_shards", float64(halted))
		reg.SetGauge(p+".failed", failed)
		reg.Add(p+".violations", uint64(viol))
		reg.Add(p+".batches", t.batches.Load())
		reg.Add(p+".ops", t.ops.Load())
		reg.Add(p+".rejected", t.rejected.Load())
		batches += t.batches.Load()
		ops += t.ops.Load()
		bytes += t.bytes.Load()
		rejected += t.rejected.Load()
	}
	reg.Add("service.tenants", uint64(len(s.order)))
	reg.Add("service.batches", batches)
	reg.Add("service.ops", ops)
	reg.Add("service.bytes", bytes)
	reg.Add("service.rejected", rejected)
}

// Handler returns the /v1 API surface. Mount it on the daemon's mux next
// to the obs surface.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	mux.HandleFunc("POST /v1/t/{tenant}/batch", s.tenantHandler((*Service).handleBatch))
	mux.HandleFunc("POST /v1/t/{tenant}/flush", s.tenantHandler((*Service).handleFlush))
	mux.HandleFunc("POST /v1/t/{tenant}/verify", s.tenantHandler((*Service).handleVerify))
	mux.HandleFunc("POST /v1/t/{tenant}/checkpoint", s.tenantHandler((*Service).handleCheckpoint))
	mux.HandleFunc("POST /v1/t/{tenant}/tamper", s.tenantHandler((*Service).handleTamper))
	return mux
}

// tenantHandler resolves {tenant} and applies the containment gate every
// endpoint shares: unknown names 404, refused (recovery-violation)
// tenants 503 — before any work happens.
func (s *Service) tenantHandler(f func(*Service, http.ResponseWriter, *http.Request, *tenant)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("tenant")
		t, ok := s.tenants[name]
		if !ok {
			writeError(w, &APIError{Status: http.StatusNotFound, Kind: KindUnknownTenant,
				Tenant: name, Msg: "unknown tenant"})
			return
		}
		if t.failed.Load() {
			writeError(w, &APIError{Status: http.StatusServiceUnavailable, Kind: KindViolation,
				Tenant: name, Msg: "tenant refused service: persisted state failed recovery verification"})
			return
		}
		f(s, w, r, t)
	}
}

// TenantInfo is one entry of GET /v1/tenants — everything a client needs
// to address the tenant (span, shard geometry) plus its live containment
// state.
type TenantInfo struct {
	Name         string `json:"name"`
	Scheme       string `json:"scheme"`
	Policy       string `json:"policy"`
	Shards       int    `json:"shards"`
	Span         uint64 `json:"span"`
	ShardSpan    uint64 `json:"shard_span"`
	HaltedShards int    `json:"halted_shards"`
	Violations   int    `json:"violations"`
	Failed       bool   `json:"failed"`
	Persisted    bool   `json:"persisted"`
	Epoch        uint64 `json:"epoch,omitempty"`
}

func (s *Service) info(t *tenant) TenantInfo {
	n, halted, viol := t.store.Health()
	m := t.cfg.Store.Machine
	pol := m.ViolationPolicy
	if pol == "" {
		pol = "record"
	}
	info := TenantInfo{
		Name:         t.name,
		Scheme:       string(m.Scheme),
		Policy:       pol,
		Shards:       n,
		Span:         t.store.Span(),
		ShardSpan:    t.store.ShardSpan(),
		HaltedShards: halted,
		Violations:   viol,
		Failed:       t.failed.Load(),
		Persisted:    t.pstore != nil || t.cfg.PersistDir != "",
	}
	if t.pstore != nil {
		t.statsMu.Lock()
		info.Epoch = t.epoch
		t.statsMu.Unlock()
	}
	return info
}

func (s *Service) handleTenants(w http.ResponseWriter, r *http.Request) {
	infos := make([]TenantInfo, 0, len(s.order))
	for _, name := range s.order {
		infos = append(infos, s.info(s.tenants[name]))
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(infos) //nolint:errcheck // best-effort body
}

// classify maps a store error onto the wire contract. A faulted shard's
// *shard.InternalError answers as a halt.
func (s *Service) classify(t *tenant, err error) *APIError {
	s.noteFault(t, err)
	switch {
	case errors.Is(err, core.ErrHalted):
		return &APIError{Status: http.StatusServiceUnavailable, Kind: KindHalted,
			Tenant: t.name, Msg: err.Error()}
	case errors.Is(err, shard.ErrClosed):
		return &APIError{Status: http.StatusServiceUnavailable, Kind: KindClosed,
			Tenant: t.name, Msg: err.Error()}
	}
	var ve *integrity.ViolationError
	if errors.As(err, &ve) {
		return &APIError{Status: http.StatusServiceUnavailable, Kind: KindViolation,
			Tenant: t.name, Msg: err.Error()}
	}
	return &APIError{Status: http.StatusInternalServerError, Kind: KindInternal,
		Tenant: t.name, Msg: err.Error()}
}

// noteFault records the first report of each shard's fault that reaches
// the service: a shard-halt flight event naming the tenant, the shard and
// the panic, and a log line with the stack.
func (s *Service) noteFault(t *tenant, err error) {
	var ie *shard.InternalError
	if !errors.As(err, &ie) || t.faulted[ie.Shard].Swap(true) {
		return
	}
	if s.cfg.Flight != nil {
		s.cfg.Flight.Record(obs.EvShardHalt, ie.Shard, 0, fmt.Sprintf("tenant %s: internal error: %v", t.name, ie.Value))
	}
	s.logf("service: tenant %s: shard %d halted by an internal error: %v\n%s", t.name, ie.Shard, ie.Value, ie.Stack)
}

// batchState is what one batch request needs beyond its bytes on the
// wire: the decoded ops, the arena behind their payloads and read
// destinations, and the shard batch they are submitted through. A tenant
// pools them, so a batch served at steady state allocates none of it.
type batchState struct {
	decoded
	sb *shard.Batch
}

// Pooling caps: a state that served a batch larger than this keeps its
// shard batch but gives its arena or op slice back to the collector, so
// one huge request does not pin its memory in the pool.
const (
	maxPooledArena = 64 << 10
	maxPooledOps   = 1024
)

// putBatchState returns st to the pool. The caller must have written its
// response: until then the encoder still reads the arena.
func (t *tenant) putBatchState(st *batchState) {
	clear(st.ops) // an arena dropped below must not stay reachable through them
	st.ops = st.ops[:0]
	if cap(st.ops) > maxPooledOps {
		st.ops = nil
	}
	if cap(st.arena) > maxPooledArena {
		st.arena = nil
	}
	t.states.Put(st)
}

func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request, t *tenant) {
	st := t.states.Get().(*batchState)
	defer t.putBatchState(st)
	if err := st.decode(r.Body, s.cfg.MaxBatchOps, s.cfg.MaxBatchBytes); err != nil {
		// The body is left to net/http's bounded drain.
		writeError(w, &APIError{Status: http.StatusBadRequest, Kind: KindBadRequest,
			Tenant: t.name, Msg: err.Error()})
		return
	}
	// The decode read the body to EOF. Closed, it is one net/http need
	// not drain after the handler, which costs a heap io.LimitedReader per
	// batch; the connection stays reusable.
	r.Body.Close()
	// A batch reply sets no header, its Content-Type is sniffed (see
	// maxSniffedOps): w.Header() would make net/http build a header map for
	// the response and clone it when the head is written.
	ops := st.ops
	if len(ops) == 0 {
		EncodeResponse(w, ops) //nolint:errcheck // empty batch
		return
	}

	// Admission: one token per op against the tenant's queue capacity.
	// All-or-nothing — a batch that cannot be admitted within the window
	// is shed whole, so a client never sees a half-applied batch from
	// backpressure alone.
	tokens, ok := t.sem.acquire(len(ops), s.cfg.AdmitTimeout)
	if !ok {
		t.rejected.Add(1)
		writeError(w, &APIError{Status: http.StatusTooManyRequests, Kind: KindBusy,
			Tenant: t.name, Msg: fmt.Sprintf("admission timed out after %s (queue capacity %d)",
				s.cfg.AdmitTimeout, t.sem.cap)})
		return
	}
	defer t.sem.release(tokens)

	b := st.sb
	var nbytes uint64
	for i := range ops {
		nbytes += uint64(len(ops[i].Data))
		if ops[i].Write {
			b.Store(ops[i].Off, ops[i].Data)
		} else {
			b.Load(ops[i].Off, ops[i].Data)
		}
	}
	werr := b.Wait()
	t.batches.Add(1)
	t.ops.Add(uint64(len(ops)))
	t.bytes.Add(nbytes)
	// Wait reports every violation this batch's own operations detected,
	// under every policy: the bytes such a batch carried are not
	// trustworthy, so it never reports success.
	if werr != nil {
		writeError(w, s.classify(t, werr))
		return
	}
	if err := EncodeResponse(w, ops); err != nil {
		s.logf("service: tenant %s: writing batch response: %v", t.name, err)
	}
}

func (s *Service) handleFlush(w http.ResponseWriter, r *http.Request, t *tenant) {
	if err := t.store.Flush(); err != nil {
		writeError(w, s.classify(t, err))
		return
	}
	writeOK(w, map[string]any{"ok": true})
}

func (s *Service) handleVerify(w http.ResponseWriter, r *http.Request, t *tenant) {
	_, _, vBefore := t.store.Health()
	err := t.store.VerifyAll()
	_, _, vAfter := t.store.Health()
	switch {
	case err != nil:
		writeError(w, s.classify(t, err))
	case vAfter > vBefore:
		writeError(w, &APIError{Status: http.StatusServiceUnavailable, Kind: KindViolation,
			Tenant: t.name, Msg: fmt.Sprintf("%d integrity violation(s) detected during verification", vAfter-vBefore)})
	default:
		writeOK(w, map[string]any{"ok": true, "violations": 0})
	}
}

func (s *Service) handleCheckpoint(w http.ResponseWriter, r *http.Request, t *tenant) {
	if t.pstore == nil {
		writeError(w, &APIError{Status: http.StatusBadRequest, Kind: KindBadRequest,
			Tenant: t.name, Msg: "tenant has no persistence configured"})
		return
	}
	epoch, err := t.checkpoint()
	if err != nil {
		writeError(w, s.classify(t, err))
		return
	}
	writeOK(w, map[string]any{"ok": true, "epoch": epoch})
}

// handleTamper corrupts one shard's protected memory — the adversary
// primitive the tamper legs drive remotely. Refused unless the service
// was armed with AllowTamper.
func (s *Service) handleTamper(w http.ResponseWriter, r *http.Request, t *tenant) {
	if !s.cfg.AllowTamper {
		writeError(w, &APIError{Status: http.StatusForbidden, Kind: KindForbidden,
			Tenant: t.name, Msg: "tamper endpoint not armed (start the service with tampering allowed)"})
		return
	}
	q := r.URL.Query()
	sh, err := queryInt(q.Get("shard"), 0)
	if err != nil || sh < 0 || sh >= t.store.Shards() {
		writeError(w, &APIError{Status: http.StatusBadRequest, Kind: KindBadRequest,
			Tenant: t.name, Msg: fmt.Sprintf("bad shard %q (store has %d)", q.Get("shard"), t.store.Shards())})
		return
	}
	off, err := queryInt(q.Get("off"), 0)
	if err != nil || off < 0 {
		writeError(w, &APIError{Status: http.StatusBadRequest, Kind: KindBadRequest,
			Tenant: t.name, Msg: fmt.Sprintf("bad off %q", q.Get("off"))})
		return
	}
	xor, err := queryInt(q.Get("xor"), 0xFF)
	if err != nil || xor < 0 || xor > 0xFF {
		writeError(w, &APIError{Status: http.StatusBadRequest, Kind: KindBadRequest,
			Tenant: t.name, Msg: fmt.Sprintf("bad xor %q", q.Get("xor"))})
		return
	}
	if err := t.store.WithShard(sh, func(m *core.Machine) {
		m.EvictProtected()
		m.Adversary().Corrupt(m.ProgAddr(uint64(off)), byte(xor))
	}); err != nil {
		writeError(w, s.classify(t, err))
		return
	}
	if s.cfg.Flight != nil {
		s.cfg.Flight.Record(obs.EvTamper, sh, 0,
			fmt.Sprintf("tenant %s: injected corruption at offset %d", t.name, off))
	}
	writeOK(w, map[string]any{"ok": true, "shard": sh, "off": off})
}

func queryInt(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(strings.TrimSpace(s))
	return v, err
}

func writeOK(w http.ResponseWriter, body map[string]any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(body) //nolint:errcheck // best-effort body
}
