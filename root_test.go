package memverify

import (
	"os/exec"
	"testing"
)

// TestBenchModule keeps the benchmark under tier-1: bench/ is a module of
// its own that compiles against a dozen internal packages (SaveState,
// RestoreState, RecoverMachine, VerifyAll, ...), so a change to any of them
// can break it without the root module's build noticing. Vet and test it
// where it lives, with the same go tool that runs this test.
func TestBenchModule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and tests a second module")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool on PATH")
	}
	for _, args := range [][]string{{"vet", "./..."}, {"test", "./..."}} {
		cmd := exec.Command("go", args...)
		cmd.Dir = "bench"
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("cd bench && go %s %s: %v\n%s", args[0], args[1], err, out)
		}
	}
}

// TestDisabledTelemetryAllocsAreConstructionOnly pins the alloc half of
// the telemetry overhead contract at whole-simulation scope: with no
// recorder attached every emission site is a nil-receiver no-op, so
// allocations are one-time machine construction and a 16x longer run must
// not allocate more than a short one (small slack absorbs GC noise).
func TestDisabledTelemetryAllocsAreConstructionOnly(t *testing.T) {
	run := func(n uint64) float64 {
		cfg := DefaultConfig()
		cfg.Scheme = SchemeCached
		cfg.Benchmark, _ = BenchmarkByName("swim")
		cfg.Instructions = n
		cfg.Warmup = 0
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := run(20_000), run(320_000)
	if long > short+32 {
		t.Errorf("16x instructions grew allocs from %.0f to %.0f: the disabled hot path is allocating", short, long)
	}
}

// TestFacade exercises the root package's re-exports end to end.
func TestFacade(t *testing.T) {
	if len(Benchmarks()) != 9 {
		t.Fatalf("Benchmarks() returned %d profiles", len(Benchmarks()))
	}
	p, ok := BenchmarkByName("mcf")
	if !ok || p.Name != "mcf" {
		t.Fatal("BenchmarkByName failed")
	}
	cfg := DefaultConfig()
	cfg.Scheme = SchemeCached
	cfg.Benchmark = p
	cfg.Instructions = 20_000
	cfg.Warmup = 5_000
	mt, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Violations != 0 || mt.IPC <= 0 {
		t.Fatalf("metrics: %+v", mt)
	}
	if _, err := NewMachine(cfg); err != nil {
		t.Fatal(err)
	}
	fp := DefaultFigureParams()
	if fp.Instructions == 0 {
		t.Fatal("figure params empty")
	}
	for _, s := range []Scheme{SchemeBase, SchemeNaive, SchemeCached, SchemeMulti, SchemeIncr} {
		if s == "" {
			t.Fatal("empty scheme constant")
		}
	}
}
