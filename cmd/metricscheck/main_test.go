package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memverify/internal/obs"
	"memverify/internal/stats"
	"memverify/internal/telemetry"
)

// goldenRegistry rebuilds the registry testdata/exposition.golden was
// generated from; the golden test pins WriteExposition's output format.
func goldenRegistry() (*telemetry.Registry, map[string]float64) {
	reg := telemetry.NewRegistry()
	reg.Add("shard.ops_submitted", 48000)
	reg.Add("shard.violations", 1)
	reg.Add("integrity.violations", 1)
	reg.Add("persist.checkpoints", 12)
	reg.Add("persist.checkpoint_nanos", 84213991)
	reg.Add("persist.base_segments", 4)
	reg.Add("persist.delta_segments", 20)
	reg.Add("persist.delta_bytes", 1871360)
	reg.SetGauge("persist.chain_links", 5)
	reg.SetGauge("bus.utilization", 0.3125)
	reg.SetGauge("shard.halted_shards", 1)
	reg.SetGauge("l2.resident_lines_data", 16384)
	h := stats.NewHistogram(16, 64, 256, 1024)
	for _, v := range []uint64{3, 17, 17, 90, 300, 2000} {
		h.Observe(v)
	}
	reg.MergeHistogram("spec.pending_depth", h)
	sampler := map[string]float64{
		"ops_per_sec":     137856,
		"ops_per_sec_p50": 120431,
		"ops_per_sec_p99": 140002,
	}
	return reg, sampler
}

func TestGoldenExposition(t *testing.T) {
	reg, sampler := goldenRegistry()
	var buf bytes.Buffer
	if err := obs.WriteExposition(&buf, reg, sampler); err != nil {
		t.Fatalf("WriteExposition: %v", err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "exposition.golden"))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if buf.String() != string(want) {
		t.Errorf("exposition drifted from golden:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}

	sc, err := obs.ValidateExposition(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("golden exposition does not validate: %v", err)
	}
	if fam, ok := sc.Families["memverify_spec_pending_depth"]; !ok || fam.Type != "histogram" {
		t.Errorf("golden missing histogram family: %+v", sc.Order)
	}
	if fam, ok := sc.Families["memverify_shard_ops_submitted"]; !ok || fam.Type != "counter" {
		t.Errorf("golden missing counter family: %+v", sc.Order)
	}
}

func TestRunValidatesAndComparesFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, reg *telemetry.Registry, sampler map[string]float64) string {
		var buf bytes.Buffer
		if err := obs.WriteExposition(&buf, reg, sampler); err != nil {
			t.Fatalf("WriteExposition: %v", err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	reg, sampler := goldenRegistry()
	first := write("first.prom", reg, sampler)
	if err := run("", "", []string{first}); err != nil {
		t.Fatalf("validate first scrape: %v", err)
	}

	// Counters advance: the -prev comparison must pass.
	reg.Add("shard.ops_submitted", 1000)
	reg.Add("persist.checkpoints", 1)
	second := write("second.prom", reg, sampler)
	if err := run(first, "", []string{second}); err != nil {
		t.Fatalf("monotonic advance rejected: %v", err)
	}

	// A counter moving backwards must fail the -prev gate.
	if err := run(second, "", []string{first}); err == nil {
		t.Fatal("backwards counter accepted")
	} else if !strings.Contains(err.Error(), "memverify_") {
		t.Fatalf("error does not name the offending metric: %v", err)
	}
}

func TestRunRejectsMalformedExposition(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.prom")
	// A sample with no TYPE/HELP metadata is illegal.
	if err := os.WriteFile(bad, []byte("memverify_orphan 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("", "", []string{bad}); err == nil {
		t.Fatal("exposition without metadata accepted")
	}
}

func TestRunScrapesURL(t *testing.T) {
	reg, sampler := goldenRegistry()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		obs.WriteExposition(w, reg, sampler) //nolint:errcheck
	}))
	defer srv.Close()
	if err := run("", srv.URL, nil); err != nil {
		t.Fatalf("URL scrape: %v", err)
	}
}

func TestFetchExitCodes(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/down" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		w.Write([]byte(`{"status": "x"}`)) //nolint:errcheck
	}))
	defer srv.Close()
	if code := fetch(srv.URL + "/up"); code != 0 {
		t.Errorf("healthy fetch exit code = %d, want 0", code)
	}
	if code := fetch(srv.URL + "/down"); code != 7 {
		t.Errorf("unhealthy fetch exit code = %d, want 7", code)
	}
}
