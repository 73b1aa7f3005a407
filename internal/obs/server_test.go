package obs

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memverify/internal/telemetry"
)

// testServer is an ops surface mounted on a test listener, the way
// memverifyd mounts it on its own.
type testServer struct {
	*Server
	url string
}

func startTestServer(t *testing.T, opts Options) testServer {
	t.Helper()
	srv, h := NewEmbedded(opts)
	ts := httptest.NewServer(h)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return testServer{srv, ts.URL}
}

func get(t *testing.T, srv testServer, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.url + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestServerMetricsAndVars(t *testing.T) {
	var ops atomic.Uint64
	ops.Store(1234)
	srv := startTestServer(t, Options{
		Fill: func(reg *telemetry.Registry) {
			reg.Add("shard.ops_submitted", ops.Load())
			reg.SetGauge("bus.utilization", 0.5)
		},
		SampleEvery: time.Hour, // scrape-triggered sampling only
	})

	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics HTTP %d", code)
	}
	sc, err := ValidateExposition(strings.NewReader(body))
	if err != nil {
		t.Fatalf("live /metrics fails validation: %v\n%s", err, body)
	}
	if _, ok := sc.Families["memverify_shard_ops_submitted"]; !ok {
		t.Errorf("counter family missing from scrape: %v", sc.Order)
	}

	code, body = get(t, srv, "/vars")
	if code != http.StatusOK || !strings.Contains(body, `"shard.ops_submitted": 1234`) {
		t.Errorf("/vars HTTP %d body %s", code, body)
	}

	// A published registry takes over the scrape surface.
	final := telemetry.NewRegistry()
	final.Add("shard.ops_submitted", 999999)
	srv.Publish(final)
	_, body = get(t, srv, "/vars")
	if !strings.Contains(body, `"shard.ops_submitted": 999999`) {
		t.Errorf("published registry not served: %s", body)
	}
}

func TestServerHealthTransitions(t *testing.T) {
	var mu sync.Mutex
	h := Health{Shards: 4}
	srv := startTestServer(t, Options{
		Health: func() Health {
			mu.Lock()
			defer mu.Unlock()
			return h
		},
	})

	code, body := get(t, srv, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status": "healthy"`) {
		t.Errorf("healthy: HTTP %d %s", code, body)
	}

	mu.Lock()
	h.HaltedShards, h.PendingViolations = 1, 1
	mu.Unlock()
	code, body = get(t, srv, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status": "degraded"`) {
		t.Errorf("degraded (tamper containment keeps serving): HTTP %d %s", code, body)
	}
	if code, _ := get(t, srv, "/readyz"); code != http.StatusOK {
		t.Errorf("degraded store must stay ready, got HTTP %d", code)
	}

	mu.Lock()
	h.HaltedShards = 4
	mu.Unlock()
	code, body = get(t, srv, "/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"status": "unhealthy"`) {
		t.Errorf("unhealthy: HTTP %d %s", code, body)
	}
	if code, _ := get(t, srv, "/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("fully halted store reported ready, HTTP %d", code)
	}
}

func TestServerFlightAndTrace(t *testing.T) {
	fr := NewFlightRecorder(16)
	fr.Record(EvViolation, 2, 77, "tampered line")
	srv := startTestServer(t, Options{Flight: fr})

	code, body := get(t, srv, "/flightrecord")
	if code != http.StatusOK || !strings.Contains(body, `"kind": "violation", "seq": 0, "shard": 2`) {
		t.Errorf("/flightrecord HTTP %d %s", code, body)
	}

	// No CaptureTrace wired: /trace explains how to enable it.
	code, body = get(t, srv, "/trace")
	if code != http.StatusNotFound || !strings.Contains(body, "-trace") {
		t.Errorf("/trace without capture: HTTP %d %s", code, body)
	}
}

func TestServerTraceCapture(t *testing.T) {
	tr := telemetry.NewTrace(64)
	tr.Emit(telemetry.TrackIntegrity, telemetry.KindTreeWalk, 10, 20, 0, 0)
	srv := startTestServer(t, Options{
		CaptureTrace: func(cycles uint64) ([]*telemetry.Trace, error) {
			return []*telemetry.Trace{tr.Tail(cycles)}, nil
		},
	})
	code, body := get(t, srv, "/trace?cycles=100")
	if code != http.StatusOK || !strings.Contains(body, "traceEvents") {
		t.Errorf("/trace HTTP %d %s", code, body)
	}
	if code, _ := get(t, srv, "/trace?cycles=bogus"); code != http.StatusBadRequest {
		t.Errorf("bad cycles accepted: HTTP %d", code)
	}
	capErr := fmt.Errorf("workers busy")
	srv2 := startTestServer(t, Options{
		CaptureTrace: func(cycles uint64) ([]*telemetry.Trace, error) { return nil, capErr },
	})
	if code, _ := get(t, srv2, "/trace"); code != http.StatusInternalServerError {
		t.Errorf("capture error not surfaced: HTTP %d", code)
	}
}

func TestServerStopSamplingKeepsServing(t *testing.T) {
	var fills atomic.Uint64
	srv := startTestServer(t, Options{
		Fill: func(reg *telemetry.Registry) {
			fills.Add(1)
			reg.Add("c", 1)
		},
		SampleEvery: time.Hour,
	})
	get(t, srv, "/metrics") // eager first sample
	n := fills.Load()
	srv.StopSampling()
	if code, _ := get(t, srv, "/metrics"); code != http.StatusOK {
		t.Errorf("/metrics after StopSampling: HTTP %d", code)
	}
	if fills.Load() != n {
		t.Errorf("fill ran after StopSampling (%d -> %d) — races store teardown", n, fills.Load())
	}
}
