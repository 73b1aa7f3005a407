package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"memverify/internal/core"
	"memverify/internal/integrity"
	"memverify/internal/obs"
	"memverify/internal/persist"
	"memverify/internal/shard"
	"memverify/internal/trace"
)

// testMachine is a small functional machine for service tests.
func testMachine(scheme core.Scheme, policy string) core.Config {
	cfg := core.DefaultConfig()
	cfg.Scheme = scheme
	cfg.Functional = true
	cfg.ProtectedBytes = 256 << 10
	cfg.L2Size = 32 << 10
	cfg.HashAlg = "fnv128"
	cfg.ViolationPolicy = policy
	cfg.Benchmark = trace.Uniform("service", 16<<10)
	cfg.Benchmark.CodeSet = 4 << 10
	if scheme == core.SchemeMulti {
		cfg.ChunkBlocks = 2
	}
	return cfg
}

func testTenant(name string, scheme core.Scheme, policy string, shards int) TenantConfig {
	return TenantConfig{
		Name:  name,
		Store: shard.Config{Machine: testMachine(scheme, policy), Shards: shards},
	}
}

func newTestService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return svc, ts
}

func postBatch(t *testing.T, url, tenant string, ops []Op) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/t/"+tenant+"/batch", "application/octet-stream",
		bytes.NewReader(EncodeRequest(ops)))
	if err != nil {
		t.Fatalf("POST batch: %v", err)
	}
	return resp
}

func errKind(t *testing.T, resp *http.Response) string {
	t.Helper()
	var e APIError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decoding error envelope: %v", err)
	}
	return e.Kind
}

func TestServiceBatchRoundtrip(t *testing.T) {
	_, ts := newTestService(t, Config{Tenants: []TenantConfig{
		testTenant("alpha", core.SchemeCached, "record", 2),
	}})

	payload := []byte("verified bytes over the wire")
	ops := []Op{
		{Write: true, Off: 100, Data: payload},
		{Off: 100, Data: make([]byte, len(payload))},
	}
	resp := postBatch(t, ts.URL, "alpha", ops)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if err := DecodeResponse(resp.Body, ops); err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	if !bytes.Equal(ops[1].Data, payload) {
		t.Fatalf("read %q, wrote %q", ops[1].Data, payload)
	}
}

func TestServiceUnknownTenantAndBadRequest(t *testing.T) {
	_, ts := newTestService(t, Config{Tenants: []TenantConfig{
		testTenant("alpha", core.SchemeCached, "record", 1),
	}})

	resp := postBatch(t, ts.URL, "ghost", nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown tenant: status %d, want 404", resp.StatusCode)
	}
	if k := errKind(t, resp); k != KindUnknownTenant {
		t.Errorf("unknown tenant kind %q", k)
	}

	bad, err := http.Post(ts.URL+"/v1/t/alpha/batch", "application/octet-stream",
		strings.NewReader("this is not MVB1"))
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status %d, want 400", bad.StatusCode)
	}
	if k := errKind(t, bad); k != KindBadRequest {
		t.Errorf("garbage body kind %q", k)
	}
}

// TestServiceRefusesTrailingFlood: a valid batch followed by 1 MiB of
// trailing bytes is a bad request, and none of its ops is applied. The
// decoder stops one byte past the declared ops (see
// TestDecodeRequestReadsBoundedBytes), so the flood is never buffered.
func TestServiceRefusesTrailingFlood(t *testing.T) {
	_, ts := newTestService(t, Config{Tenants: []TenantConfig{
		testTenant("alpha", core.SchemeCached, "record", 1),
	}})
	payload := []byte("must not land")
	body := append(EncodeRequest([]Op{{Write: true, Off: 200, Data: payload}}), make([]byte, 1<<20)...)
	resp, err := http.Post(ts.URL+"/v1/t/alpha/batch", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("flooded batch: status %d, want 400", resp.StatusCode)
	}
	if k := errKind(t, resp); k != KindBadRequest {
		t.Errorf("flooded batch kind %q", k)
	}

	ops := []Op{{Off: 200, Data: make([]byte, len(payload))}}
	read := postBatch(t, ts.URL, "alpha", ops)
	defer read.Body.Close()
	if read.StatusCode != http.StatusOK {
		t.Fatalf("read-back status %d", read.StatusCode)
	}
	if err := DecodeResponse(read.Body, ops); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ops[0].Data, make([]byte, len(payload))) {
		t.Fatalf("refused batch's write was applied: read %q", ops[0].Data)
	}
}

// TestCloseLeavesNoGoroutines: a persisted 2-shard tenant checkpoints,
// then a second service recovers it (persist.RecoverStore, whose tree
// rebuild runs on GOMAXPROCS workers), serves a few
// batches and closes. Afterwards no goroutine the two services, their
// stores, the recovery check or their HTTP servers started is left.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	defer runtime.GOMAXPROCS(prev)
	tc := testTenant("alpha", core.SchemeCached, "record", 2)
	tc.PersistDir = t.TempDir()
	payload := []byte("survives the restart")
	start := runtime.NumGoroutine()

	for round := 0; round < 2; round++ {
		svc, err := New(Config{Tenants: []TenantConfig{tc}})
		if err != nil {
			t.Fatalf("round %d: New: %v", round, err)
		}
		if rec := svc.tenants["alpha"].recovery; round == 1 && (rec.Outcome != persist.OutcomeClean || rec.Epoch == 0) {
			t.Fatalf("restart recovered %s at epoch %d, want a clean checkpointed epoch", rec.Outcome, rec.Epoch)
		}
		ts := httptest.NewServer(svc.Handler())
		client := &http.Client{Transport: &http.Transport{}}
		half := svc.tenants["alpha"].store.ShardSpan() / 2
		for i := 0; i < 4; i++ {
			off := uint64(i) * half // two batches per shard
			ops := []Op{{Off: off, Data: make([]byte, len(payload))}}
			if round == 0 {
				ops = append([]Op{{Write: true, Off: off, Data: payload}}, ops...)
			}
			resp, err := client.Post(ts.URL+"/v1/t/alpha/batch", "application/octet-stream",
				bytes.NewReader(EncodeRequest(ops)))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("round %d batch %d: status %d", round, i, resp.StatusCode)
			}
			err = DecodeResponse(resp.Body, ops)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if got := ops[len(ops)-1].Data; !bytes.Equal(got, payload) {
				t.Fatalf("round %d batch %d: read %q", round, i, got)
			}
		}
		if round == 0 {
			if err := svc.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		client.CloseIdleConnections()
		ts.Close()
		svc.Close()
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before:\n%s",
				runtime.NumGoroutine(), start, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServiceTamperGate(t *testing.T) {
	_, ts := newTestService(t, Config{Tenants: []TenantConfig{
		testTenant("alpha", core.SchemeCached, "record", 1),
	}})
	resp, err := http.Post(ts.URL+"/v1/t/alpha/tamper", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("unarmed tamper: status %d, want 403", resp.StatusCode)
	}
	if k := errKind(t, resp); k != KindForbidden {
		t.Errorf("unarmed tamper kind %q", k)
	}
}

// TestServiceRecordPolicyViolationSurfaces pins the record-policy
// containment path: the machine records and continues, but the batch that
// observed the violation must still fail with 503/violation — tampered
// bytes never report success.
func TestServiceRecordPolicyViolationSurfaces(t *testing.T) {
	svc, ts := newTestService(t, Config{
		Tenants:     []TenantConfig{testTenant("alpha", core.SchemeCached, "record", 2)},
		AllowTamper: true,
	})

	seed := []Op{{Write: true, Off: 0, Data: bytes.Repeat([]byte{0x5A}, 64)}}
	resp := postBatch(t, ts.URL, "alpha", seed)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed write: status %d", resp.StatusCode)
	}

	tam, err := http.Post(ts.URL+"/v1/t/alpha/tamper?shard=0&off=0&xor=255", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	tam.Body.Close()
	if tam.StatusCode != http.StatusOK {
		t.Fatalf("tamper: status %d", tam.StatusCode)
	}

	read := []Op{{Off: 0, Data: make([]byte, 64)}}
	resp = postBatch(t, ts.URL, "alpha", read)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("tampered read: status %d, want 503", resp.StatusCode)
	}
	if k := errKind(t, resp); k != KindViolation {
		t.Errorf("tampered read kind %q, want %q", k, KindViolation)
	}
	if st := svc.Health().State(); st != obs.Degraded {
		t.Errorf("health after violation: %v, want degraded", st)
	}
}

// TestServiceBackpressureBoundedLatency pins the 429 contract: with the
// tenant's whole admission capacity held, a batch is shed with 429 within
// (roughly) AdmitTimeout — never parked unboundedly — all-or-nothing, and
// admission recovers once capacity frees.
func TestServiceBackpressureBoundedLatency(t *testing.T) {
	admit := 100 * time.Millisecond
	svc, ts := newTestService(t, Config{
		Tenants:      []TenantConfig{testTenant("alpha", core.SchemeCached, "record", 1)},
		AdmitTimeout: admit,
	})
	tn := svc.tenants["alpha"]
	held, ok := tn.sem.acquire(tn.sem.cap, time.Second)
	if !ok {
		t.Fatal("could not drain the admission semaphore")
	}

	ops := []Op{{Write: true, Off: 0, Data: []byte{0xEE}}}
	start := time.Now()
	resp := postBatch(t, ts.URL, "alpha", ops)
	elapsed := time.Since(start)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated batch: status %d, want 429", resp.StatusCode)
	}
	if k := errKind(t, resp); k != KindBusy {
		t.Errorf("saturated batch kind %q, want %q", k, KindBusy)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if elapsed > 10*admit {
		t.Errorf("shed took %v — not bounded by the %v admission window", elapsed, admit)
	}
	if tn.rejected.Load() == 0 {
		t.Error("rejection not counted")
	}

	// All-or-nothing: the shed write must not have landed.
	tn.sem.release(held)
	check := []Op{{Off: 0, Data: make([]byte, 1)}}
	resp2 := postBatch(t, ts.URL, "alpha", check)
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-release read: status %d", resp2.StatusCode)
	}
	if err := DecodeResponse(resp2.Body, check); err != nil {
		t.Fatal(err)
	}
	if check[0].Data[0] != 0 {
		t.Errorf("shed batch leaked a write: read %#x", check[0].Data[0])
	}
}

func TestServiceTenantListing(t *testing.T) {
	_, ts := newTestService(t, Config{Tenants: []TenantConfig{
		testTenant("alpha", core.SchemeCached, "record", 2),
		testTenant("bravo", core.SchemeMulti, "halt", 1),
	}})
	resp, err := http.Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []TenantInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Name != "alpha" || infos[1].Name != "bravo" {
		t.Fatalf("listing %+v", infos)
	}
	if infos[0].Shards != 2 || infos[0].Span == 0 || infos[0].ShardSpan != infos[0].Span/2 {
		t.Errorf("alpha geometry %+v", infos[0])
	}
	if infos[1].Scheme != "m" || infos[1].Policy != "halt" {
		t.Errorf("bravo config %+v", infos[1])
	}
}

func TestServiceRejectsBadTenantNames(t *testing.T) {
	for _, name := range []string{"", "CAPS", "has space", "-lead", "_lead", "a.b"} {
		_, err := New(Config{Tenants: []TenantConfig{
			testTenant(name, core.SchemeCached, "record", 1),
		}})
		if err == nil {
			t.Errorf("name %q accepted", name)
		}
	}
	_, err := New(Config{Tenants: []TenantConfig{
		testTenant("dup", core.SchemeCached, "record", 1),
		testTenant("dup", core.SchemeCached, "record", 1),
	}})
	if err == nil {
		t.Error("duplicate tenant accepted")
	}
}

// TestServiceRefusesTimingTenant pins the start-up guard: "timing" is no
// hash mode (a functional run computes every digest), so core refuses the
// tenant's machines and New reports that refusal under the tenant's name.
func TestServiceRefusesTimingTenant(t *testing.T) {
	tc := testTenant("t2", core.SchemeMulti, "record", 1)
	tc.Store.Machine.HashMode = "timing"
	_, err := New(Config{Tenants: []TenantConfig{
		testTenant("t0", core.SchemeCached, "record", 1), tc,
	}, AllowTamper: true})
	if err == nil || !strings.Contains(err.Error(), "tenant t2") || !strings.Contains(err.Error(), `"timing"`) {
		t.Fatalf("New with a timing tenant: %v, want a refusal of the mode naming tenant t2", err)
	}
}

// TestServiceRefusesSchemeI: a tenant spec naming the i scheme, whose MAC
// key is public, fails New with the store's *shard.SettingError for the
// Scheme field, wrapped with the tenant's name — with persistence and
// without.
func TestServiceRefusesSchemeI(t *testing.T) {
	base := testTenant("", core.SchemeCached, "record", 1)
	for _, persisted := range []bool{false, true} {
		tcs, err := ParseTenants("t0, t1:scheme=i", base)
		if err != nil {
			t.Fatal(err)
		}
		if persisted {
			for i := range tcs {
				tcs[i].PersistDir = t.TempDir()
			}
		}
		_, err = New(Config{Tenants: tcs})
		var se *shard.SettingError
		if !errors.As(err, &se) || se.Field != "Scheme" || !strings.Contains(err.Error(), "tenant t1") ||
			!strings.Contains(err.Error(), "public") {
			t.Fatalf("New with a scheme=i tenant (persisted %v): %v, want the Scheme refusal naming tenant t1", persisted, err)
		}
	}
}

// TestPanicHaltsOneTenant is the per-tenant fault boundary: a panic on a
// shard worker — here tenant t1's OnViolation hook, on a tampered read —
// halts that shard and answers 503 halted, while the neighbour tenant t0
// keeps round-tripping bytes. The flight recorder names the tenant and
// the shard, t1's next checkpoint is refused rather than sealing the
// faulted state, and a restart recovers t1's last sealed epoch clean.
func TestPanicHaltsOneTenant(t *testing.T) {
	t0 := testTenant("t0", core.SchemeCached, "record", 2)
	t1 := testTenant("t1", core.SchemeCached, "record", 2)
	t0.PersistDir, t1.PersistDir = t.TempDir(), t.TempDir()
	tenants := []TenantConfig{t0, t1}
	t1.Store.OnViolation = func(int, *integrity.ViolationError, bool) { panic("observer bug") }
	fr := obs.NewFlightRecorder(64)
	svc, ts := newTestService(t, Config{Tenants: []TenantConfig{t0, t1}, AllowTamper: true, Flight: fr})

	sealed := bytes.Repeat([]byte{0x3c}, 64)
	resp := postBatch(t, ts.URL, "t1", []Op{{Write: true, Off: 0, Data: sealed}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed write: status %d", resp.StatusCode)
	}
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tam, err := http.Post(ts.URL+"/v1/t/t1/tamper?shard=0&off=0&xor=255", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	tam.Body.Close()
	resp = postBatch(t, ts.URL, "t1", []Op{{Off: 0, Data: make([]byte, 64)}})
	if resp.StatusCode != http.StatusServiceUnavailable || errKind(t, resp) != KindHalted {
		t.Fatalf("read that panicked: status %d, want 503 halted", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postBatch(t, ts.URL, "t1", []Op{{Off: 0, Data: make([]byte, 64)}})
	if resp.StatusCode != http.StatusServiceUnavailable || errKind(t, resp) != KindHalted {
		t.Fatalf("read on the faulted shard: status %d, want 503 halted", resp.StatusCode)
	}
	resp.Body.Close()

	payload := []byte("the neighbour still serves")
	nb := []Op{{Write: true, Off: 0, Data: payload}, {Off: 0, Data: make([]byte, len(payload))}}
	resp = postBatch(t, ts.URL, "t0", nb)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("neighbour batch: status %d", resp.StatusCode)
	}
	if err := DecodeResponse(resp.Body, nb); err != nil || !bytes.Equal(nb[1].Data, payload) {
		t.Fatalf("neighbour read %q (%v), wrote %q", nb[1].Data, err, payload)
	}
	resp.Body.Close()

	var dump bytes.Buffer
	if err := fr.WriteJSON(&dump); err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, ev := range fr.Events() {
		if ev.Kind == obs.EvShardHalt && ev.Shard == 0 && strings.Contains(ev.Detail, "tenant t1") &&
			strings.Contains(ev.Detail, "observer bug") {
			found++
		}
	}
	if found != 1 || !strings.Contains(dump.String(), "tenant t1: internal error") {
		t.Fatalf("%d shard-halt events name tenant t1, shard 0 and the panic, want 1; dump %s", found, dump.String())
	}
	if st := svc.Health().State(); st != obs.Degraded {
		t.Errorf("health with a faulted shard: %v, want degraded", st)
	}
	err = svc.Checkpoint()
	var ie *shard.InternalError
	if !errors.As(err, &ie) || !strings.Contains(err.Error(), "tenant t1") || strings.Contains(err.Error(), "tenant t0") {
		t.Fatalf("checkpoint with t1 faulted: %v, want t1's InternalError alone", err)
	}
	svc.Close()

	restarted, ts2 := newTestService(t, Config{Tenants: tenants})
	for _, name := range []string{"t0", "t1"} {
		if rec := restarted.tenants[name].recovery; rec.Outcome != persist.OutcomeClean {
			t.Fatalf("restart: tenant %s recovered %s (%s), want clean", name, rec.Outcome, rec.Detail)
		}
	}
	read := []Op{{Off: 0, Data: make([]byte, 64)}}
	resp = postBatch(t, ts2.URL, "t1", read)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("t1 after the restart: status %d", resp.StatusCode)
	}
	if err := DecodeResponse(resp.Body, read); err != nil || !bytes.Equal(read[0].Data, sealed) {
		t.Fatalf("t1 after the restart read %x (%v), want the sealed %x", read[0].Data, err, sealed)
	}
}

// TestServiceRecordPolicyNeighbourBatchesClean: under the record policy a
// batch answers 503 for the violations its own operations detected and
// for no one else's. Clean batches hammer shard 0 while another client
// keeps loading freshly tampered blocks on shard 1.
func TestServiceRecordPolicyNeighbourBatchesClean(t *testing.T) {
	svc, ts := newTestService(t, Config{
		Tenants:     []TenantConfig{testTenant("alpha", core.SchemeCached, "record", 2)},
		AllowTamper: true,
	})
	shardSpan := svc.tenants["alpha"].store.ShardSpan()
	const rounds = 150

	stop := make(chan struct{})
	cleanErr := make(chan error, 1)
	go func() {
		var clean, dirty int
		payload := bytes.Repeat([]byte{0xA5}, 48)
		for i := 0; ; i++ {
			select {
			case <-stop:
				if dirty > 0 {
					cleanErr <- fmt.Errorf("%d of %d clean batches were refused", dirty, clean+dirty)
				} else if clean == 0 {
					cleanErr <- fmt.Errorf("no clean batch ran")
				} else {
					cleanErr <- nil
				}
				return
			default:
			}
			off := uint64(i%64) * 64
			ops := []Op{{Write: true, Off: off, Data: payload}, {Off: off, Data: make([]byte, len(payload))}}
			resp, err := http.Post(ts.URL+"/v1/t/alpha/batch", "application/octet-stream",
				bytes.NewReader(EncodeRequest(ops)))
			if err != nil {
				cleanErr <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				clean++
			} else {
				dirty++
			}
		}
	}()

	for k := 0; k < rounds; k++ {
		off := uint64(k) * 64
		tam, err := http.Post(fmt.Sprintf("%s/v1/t/alpha/tamper?shard=1&off=%d", ts.URL, off), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		tam.Body.Close()
		if tam.StatusCode != http.StatusOK {
			t.Fatalf("tamper %d: status %d", k, tam.StatusCode)
		}
		resp := postBatch(t, ts.URL, "alpha", []Op{{Off: shardSpan + off, Data: make([]byte, 16)}})
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("tampered load %d: status %d, want 503", k, resp.StatusCode)
		} else if kind := errKind(t, resp); kind != KindViolation {
			t.Errorf("tampered load %d: kind %q, want %q", k, kind, KindViolation)
		}
		resp.Body.Close()
	}
	close(stop)
	if err := <-cleanErr; err != nil {
		t.Error(err)
	}
}

func TestParseTenants(t *testing.T) {
	base := testTenant("", core.SchemeCached, "record", 2)
	tcs, err := ParseTenants("alpha, bravo:scheme=m;policy=halt;shards=4, charlie:queue=8;alg=sha1", base)
	if err != nil {
		t.Fatalf("ParseTenants: %v", err)
	}
	if len(tcs) != 3 {
		t.Fatalf("parsed %d tenants, want 3", len(tcs))
	}
	a, b, c := tcs[0], tcs[1], tcs[2]
	if a.Name != "alpha" || a.Store.Machine.Scheme != core.SchemeCached || a.Store.Shards != 2 {
		t.Errorf("alpha %+v", a)
	}
	if b.Store.Machine.Scheme != core.SchemeMulti || b.Store.Machine.ViolationPolicy != "halt" ||
		b.Store.Shards != 4 || b.Store.Machine.ChunkBlocks != 2 {
		t.Errorf("bravo %+v", b.Store)
	}
	if c.Store.QueueDepth != 8 || c.Store.Machine.HashAlg != "sha1" {
		t.Errorf("charlie %+v", c.Store)
	}
	// Overrides must not leak between tenants.
	if a.Store.Machine.ViolationPolicy != "record" || a.Store.Machine.HashAlg != base.Store.Machine.HashAlg {
		t.Errorf("override leaked into alpha: %+v", a.Store.Machine)
	}

	// A tenant runs the serving configuration only, so the spec has no
	// key for a hash mode or the speculative pipeline.
	for _, bad := range []string{"", "  ", "x:shards=zero", "x:nope=1", "x:shards", "Bad Name", "t:hashmode=timing", "t:spec=true"} {
		if _, err := ParseTenants(bad, base); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}

	// Values are checked where every other configuration path checks
	// them: the machine's validation refuses a policy other than record
	// or halt, and New names the tenant.
	tcs, err = ParseTenants("alpha,t3:policy=retry", base)
	if err != nil {
		t.Fatalf("ParseTenants: %v", err)
	}
	if _, err := New(Config{Tenants: tcs}); err == nil ||
		!strings.Contains(err.Error(), "tenant t3") || !strings.Contains(err.Error(), "want record or halt") {
		t.Fatalf("New with policy=retry: %v, want a refusal naming tenant t3", err)
	}
}

// TestSlowHeaderIsShedBatchInFlightIsNot is the slow-loris check on the
// server both binaries build (obs.NewHTTPServer): a peer that sends half
// a header block and stalls is disconnected once ReadHeaderTimeout runs
// out, while a batch on another connection — header complete, body still
// arriving through that whole interval — is served as if nothing happened.
func TestSlowHeaderIsShedBatchInFlightIsNot(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out obs.ReadHeaderTimeout")
	}
	svc, err := New(Config{Tenants: []TenantConfig{testTenant("alpha", core.SchemeCached, "record", 1)}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := obs.NewHTTPServer(svc.Handler())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	// The batch: header block complete, then only the first half of the body.
	payload := []byte("in flight across the timeout")
	ops := []Op{{Write: true, Off: 64, Data: payload}, {Off: 64, Data: make([]byte, len(payload))}}
	wire := EncodeRequest(ops)
	batch, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer batch.Close()
	fmt.Fprintf(batch, "POST /v1/t/alpha/batch HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n", len(wire))
	if _, err := batch.Write(wire[:len(wire)/2]); err != nil {
		t.Fatal(err)
	}

	// The loris: a request line, one header, and no blank line — ever.
	loris, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer loris.Close()
	start := time.Now()
	fmt.Fprintf(loris, "GET /healthz HTTP/1.1\r\nHost: x\r\n")
	loris.SetReadDeadline(start.Add(obs.ReadHeaderTimeout + 5*time.Second))
	// The server may answer 408 before it hangs up; either way the read
	// side reaches EOF, and not before the timeout has run.
	if _, err := io.Copy(io.Discard, loris); err != nil {
		t.Fatalf("half a header was still connected %v after it was sent: %v", time.Since(start), err)
	}
	if held := time.Since(start); held < obs.ReadHeaderTimeout-time.Second {
		t.Fatalf("disconnected after %v, before ReadHeaderTimeout (%v) could have fired", held, obs.ReadHeaderTimeout)
	}

	if _, err := batch.Write(wire[len(wire)/2:]); err != nil {
		t.Fatalf("the in-flight batch's connection was closed under it: %v", err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(batch), nil)
	if err != nil {
		t.Fatalf("reading the batch response: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if err := DecodeResponse(resp.Body, ops); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ops[1].Data, payload) {
		t.Fatalf("read %q, wrote %q", ops[1].Data, payload)
	}
}

// TestTenantListingDuringCheckpoints lists the tenants while checkpoints
// run: the listing's epoch is the snapshot the last checkpoint left, so
// under -race the two never touch the store's live epoch together, and
// the listed epoch never runs ahead of the checkpoints sealed.
func TestTenantListingDuringCheckpoints(t *testing.T) {
	tc := testTenant("alpha", core.SchemeCached, "record", 2)
	tc.PersistDir = t.TempDir()
	svc, ts := newTestService(t, Config{Tenants: []TenantConfig{tc}})
	const rounds = 20
	done := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			if err := svc.Checkpoint(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	list := func() uint64 {
		resp, err := http.Get(ts.URL + "/v1/tenants")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var infos []TenantInfo
		if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
			t.Fatal(err)
		}
		if len(infos) != 1 || infos[0].Epoch > rounds {
			t.Fatalf("listing %+v during %d checkpoints", infos, rounds)
		}
		return infos[0].Epoch
	}
	for finished := false; !finished; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			finished = true
		default:
			list()
		}
	}
	if got := list(); got != rounds {
		t.Fatalf("listed epoch %d after %d checkpoints", got, rounds)
	}
}

// TestReplayedDirectoryRefusesOnlyThatTenant puts a persisted tenant's
// epoch-1 segments and MANIFEST back under a WAL that sealed epoch 2 —
// an internally valid but stale snapshot — and restarts the service.
// Recovery must classify the directory as a violation: the tenant stays
// listed but answers every batch with 503 violation, /healthz reads
// degraded (not unhealthy), and the neighbour tenant keeps serving.
func TestReplayedDirectoryRefusesOnlyThatTenant(t *testing.T) {
	dir := t.TempDir()
	stash := t.TempDir()
	alpha := testTenant("alpha", core.SchemeCached, "record", 2)
	alpha.PersistDir = dir
	tenants := []TenantConfig{alpha, testTenant("bravo", core.SchemeMulti, "record", 2)}
	moveSnapshot := func(from, to string) {
		t.Helper()
		old, err := filepath.Glob(filepath.Join(to, "seg-*"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range old {
			if err := os.Remove(f); err != nil {
				t.Fatal(err)
			}
		}
		files, err := filepath.Glob(filepath.Join(from, "seg-*"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no segments in %s (%v)", from, err)
		}
		for _, f := range append(files, filepath.Join(from, "MANIFEST")) {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(to, filepath.Base(f)), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	svc, err := New(Config{Tenants: tenants})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for epoch, fill := range []byte{0x11, 0x22} {
		if err := svc.tenants["alpha"].store.StoreBytes(0, bytes.Repeat([]byte{fill}, 64)); err != nil {
			t.Fatal(err)
		}
		if err := svc.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", epoch+1, err)
		}
		if epoch == 0 {
			moveSnapshot(dir, stash)
		}
	}
	svc.Close()
	moveSnapshot(stash, dir)

	svc, ts := newTestService(t, Config{Tenants: tenants})
	if rec := svc.tenants["alpha"].recovery; rec.Outcome != persist.OutcomeViolation {
		t.Fatalf("replayed directory recovered %s, want %s", rec.Outcome, persist.OutcomeViolation)
	}

	resp := postBatch(t, ts.URL, "alpha", []Op{{Off: 0, Data: make([]byte, 64)}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("refused tenant batch: status %d, want 503", resp.StatusCode)
	}
	if k := errKind(t, resp); k != KindViolation {
		t.Errorf("refused tenant batch kind %q, want %q", k, KindViolation)
	}
	resp.Body.Close()

	ops, h := obs.NewEmbedded(obs.Options{Health: svc.Health})
	defer ops.Close()
	hs := httptest.NewServer(h)
	defer hs.Close()
	hr, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK || !strings.Contains(string(body), `"status": "degraded"`) ||
		!strings.Contains(string(body), "tenant alpha") {
		t.Errorf("/healthz with one refused tenant: HTTP %d %s", hr.StatusCode, body)
	}

	payload := []byte("the neighbour still serves")
	nb := []Op{{Write: true, Off: 4096, Data: payload}, {Off: 4096, Data: make([]byte, len(payload))}}
	resp = postBatch(t, ts.URL, "bravo", nb)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("neighbour batch: status %d", resp.StatusCode)
	}
	if err := DecodeResponse(resp.Body, nb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nb[1].Data, payload) {
		t.Fatalf("neighbour read %q, wrote %q", nb[1].Data, payload)
	}
}
