package client

import (
	"bytes"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"memverify/internal/core"
	"memverify/internal/obs"
	"memverify/internal/service"
	"memverify/internal/shard"
	"memverify/internal/trace"
)

func testMachine(scheme core.Scheme, policy string) core.Config {
	cfg := core.DefaultConfig()
	cfg.Scheme = scheme
	cfg.Functional = true
	cfg.ProtectedBytes = 256 << 10
	cfg.L2Size = 32 << 10
	cfg.HashAlg = "fnv128"
	cfg.ViolationPolicy = policy
	cfg.Benchmark = trace.Uniform("client", 16<<10)
	cfg.Benchmark.CodeSet = 4 << 10
	if scheme == core.SchemeMulti || scheme == core.SchemeIncr {
		cfg.ChunkBlocks = 2
	}
	return cfg
}

func startService(t *testing.T, cfg service.Config) (*service.Service, *httptest.Server) {
	t.Helper()
	return startWrapped(t, cfg, func(h http.Handler) http.Handler { return h })
}

// startWrapped is startService with wrap between the listener and the
// service's handler.
func startWrapped(t *testing.T, cfg service.Config, wrap func(http.Handler) http.Handler) (*service.Service, *httptest.Server) {
	t.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	ts := httptest.NewServer(wrap(svc.Handler()))
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return svc, ts
}

// TestRemoteMatchesLocal drives the same deterministic mirror-checked
// workload through a local shard.Store and through the wire, and demands
// byte-identical reads: the service layer must be a transparent window
// onto the same verified-memory semantics.
func TestRemoteMatchesLocal(t *testing.T) {
	for _, scheme := range []core.Scheme{core.SchemeCached, core.SchemeIncr} {
		t.Run(string(scheme), func(t *testing.T) {
			mcfg := testMachine(scheme, "record")
			scfg := shard.Config{Machine: mcfg, Shards: 2}

			local, err := shard.New(scfg)
			if err != nil {
				t.Fatal(err)
			}
			defer local.Close()

			_, ts := startService(t, service.Config{Tenants: []service.TenantConfig{
				{Name: "alpha", Store: scfg},
			}})
			c, err := Dial(ts.URL, "alpha")
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer c.Close()
			if c.Span() != local.Span() || c.Shards() != local.Shards() {
				t.Fatalf("remote geometry span=%d shards=%d, local span=%d shards=%d",
					c.Span(), c.Shards(), local.Span(), local.Shards())
			}

			rng := rand.New(rand.NewSource(7))
			span := local.Span()
			lb, rb := local.NewBatch(), c.NewBatch()
			type read struct{ loc, rem []byte }
			var reads []read
			for op := 0; op < 400; op++ {
				length := 1 + rng.Intn(200)
				off := rng.Uint64() % (span - uint64(length))
				if rng.Intn(2) == 0 {
					p := make([]byte, length)
					rng.Read(p)
					lb.Store(off, p)
					rb.Store(off, p)
				} else {
					r := read{loc: make([]byte, length), rem: make([]byte, length)}
					lb.Load(off, r.loc)
					rb.Load(off, r.rem)
					reads = append(reads, r)
				}
				if (op+1)%16 == 0 {
					if err := lb.Wait(); err != nil {
						t.Fatalf("local Wait: %v", err)
					}
					if err := rb.Wait(); err != nil {
						t.Fatalf("remote Wait: %v", err)
					}
					for i, r := range reads {
						if !bytes.Equal(r.loc, r.rem) {
							t.Fatalf("read %d diverged: local %x..., remote %x...", i, r.loc[:4], r.rem[:4])
						}
					}
					reads = reads[:0]
				}
			}
			if err := lb.Wait(); err != nil {
				t.Fatal(err)
			}
			if err := rb.Wait(); err != nil {
				t.Fatal(err)
			}
			if err := local.VerifyAll(); err != nil {
				t.Errorf("local VerifyAll: %v", err)
			}
			if err := c.Verify(); err != nil {
				t.Errorf("remote Verify: %v", err)
			}
		})
	}
}

// TestTenantTamperIsolation is the containment contract end to end: a
// tampered halt-policy tenant 503s, its neighbor keeps serving clean, and
// the merged health degrades without going unhealthy.
func TestTenantTamperIsolation(t *testing.T) {
	mcfg := testMachine(core.SchemeCached, "halt")
	svc, ts := startService(t, service.Config{
		Tenants: []service.TenantConfig{
			{Name: "victim", Store: shard.Config{Machine: mcfg, Shards: 2}},
			{Name: "bystander", Store: shard.Config{Machine: mcfg, Shards: 2}},
		},
		AllowTamper: true,
	})
	victim, err := Dial(ts.URL, "victim")
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	bystander, err := Dial(ts.URL, "bystander")
	if err != nil {
		t.Fatal(err)
	}
	defer bystander.Close()

	for _, c := range []*Client{victim, bystander} {
		if err := c.StoreBytes(0, bytes.Repeat([]byte{0x11}, 128)); err != nil {
			t.Fatalf("seed write: %v", err)
		}
	}

	if err := victim.Tamper(0, 0, 0xFF); err != nil {
		t.Fatalf("Tamper: %v", err)
	}
	verr := victim.Verify()
	if verr == nil {
		t.Fatal("tampered tenant verified clean")
	}
	var apiErr *service.APIError
	if !errors.As(verr, &apiErr) || apiErr.Status != 503 {
		t.Fatalf("tampered verify error %v, want a 503 APIError", verr)
	}
	if apiErr.Kind != service.KindViolation && apiErr.Kind != service.KindHalted {
		t.Errorf("tampered verify kind %q", apiErr.Kind)
	}
	if apiErr.Tenant != "victim" {
		t.Errorf("violation attributed to %q, want victim", apiErr.Tenant)
	}

	// The halted shard refuses further traffic on the victim...
	err = victim.LoadBytes(0, make([]byte, 8))
	if !errors.As(err, &apiErr) || apiErr.Status != 503 {
		t.Fatalf("post-tamper victim read: %v, want 503", err)
	}
	// ...while the bystander still serves, mirror-clean.
	got := make([]byte, 128)
	if err := bystander.LoadBytes(0, got); err != nil {
		t.Fatalf("bystander read after neighbor tamper: %v", err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{0x11}, 128)) {
		t.Error("bystander bytes corrupted")
	}
	if err := bystander.Verify(); err != nil {
		t.Errorf("bystander Verify: %v", err)
	}

	if st := svc.Health().State(); st != obs.Degraded {
		t.Errorf("service health %v, want degraded (one tenant down, one serving)", st)
	}
}

// TestPersistedTenantSurvivesRestart checkpoints through the wire, tears
// the whole service down, rebuilds it from the same directories and
// demands the bytes (and epoch) back.
func TestPersistedTenantSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	tenantCfg := func() service.TenantConfig {
		return service.TenantConfig{
			Name:       "durable",
			Store:      shard.Config{Machine: testMachine(core.SchemeCached, "record"), Shards: 2},
			PersistDir: filepath.Join(dir, "durable"),
			AnchorPath: filepath.Join(dir, "anchors", "durable.anchor"),
		}
	}

	svc, err := service.New(service.Config{Tenants: []service.TenantConfig{tenantCfg()}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	c, err := Dial(ts.URL, "durable")
	if err != nil {
		t.Fatal(err)
	}

	want := make([]byte, 4096)
	rand.New(rand.NewSource(3)).Read(want)
	if err := c.StoreBytes(500, want); err != nil {
		t.Fatal(err)
	}
	epoch, err := c.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if epoch != 1 {
		t.Fatalf("first checkpoint sealed epoch %d, want 1", epoch)
	}
	c.Close()
	ts.Close()
	svc.Close()

	svc2, err := service.New(service.Config{Tenants: []service.TenantConfig{tenantCfg()}})
	if err != nil {
		t.Fatalf("reopening service: %v", err)
	}
	defer svc2.Close()
	ts2 := httptest.NewServer(svc2.Handler())
	defer ts2.Close()
	c2, err := Dial(ts2.URL, "durable")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Info().Epoch != 1 {
		t.Errorf("recovered epoch %d, want 1", c2.Info().Epoch)
	}
	got := make([]byte, len(want))
	if err := c2.LoadBytes(500, got); err != nil {
		t.Fatalf("post-recovery read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("persisted bytes did not survive the restart")
	}
	if err := c2.Verify(); err != nil {
		t.Errorf("post-recovery Verify: %v", err)
	}
}

// TestClientRetriesBusy pins the 429 path: a batch that hits a saturated
// tenant retries within its budget and eventually lands.
func TestClientRetriesBusy(t *testing.T) {
	svc, ts := startService(t, service.Config{
		Tenants: []service.TenantConfig{
			{Name: "tiny", Store: shard.Config{Machine: testMachine(core.SchemeCached, "record"), Shards: 1, QueueDepth: 2}},
		},
		AdmitTimeout: 20 * time.Millisecond,
	})
	c, err := Dial(ts.URL, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Saturate, then free capacity from another goroutine while the
	// client retries.
	release := svc.HoldAdmission("tiny")
	done := make(chan error, 1)
	go func() { done <- c.StoreBytes(0, []byte{1, 2, 3}) }()
	go func() {
		// Let at least one 429 round-trip happen before freeing capacity.
		deadline := time.Now().Add(2 * time.Second)
		for svc.Rejected("tiny") == 0 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		release()
	}()
	if err := <-done; err != nil {
		t.Fatalf("retried batch failed: %v", err)
	}
	if svc.Rejected("tiny") == 0 {
		t.Error("batch never saw a 429 — the saturation setup is broken")
	}
}
