package core

import (
	"reflect"
	"testing"
)

var allSchemes = []Scheme{SchemeBase, SchemeNaive, SchemeCached, SchemeMulti, SchemeIncr}

// TestHashModeMetricsEquivalence is the cross-mode equivalence suite: the
// hash-execution mode may change how digests are computed, never what the
// simulator measures. Every scheme must produce identical Metrics in
// full and timing execution.
func TestHashModeMetricsEquivalence(t *testing.T) {
	for _, s := range allSchemes {
		s := s
		t.Run(string(s), func(t *testing.T) {
			run := func(mode string) Metrics {
				cfg := smallCfg(s)
				cfg.HashMode = mode
				mt, err := Run(cfg)
				if err != nil {
					t.Fatalf("mode %q: %v", mode, err)
				}
				return mt
			}
			full := run("full")
			if got := run("timing"); !reflect.DeepEqual(got, full) {
				t.Errorf("timing metrics diverge from full:\nfull   %+v\ntiming %+v", full, got)
			}
		})
	}
}

func TestHashModeValidate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HashMode = "bogus"
	if err := cfg.Validate(); err == nil {
		t.Error("unknown hash mode accepted")
	}
	// Timing-only execution never materializes the tree, so the functional
	// 256 MiB cap does not apply to it.
	cfg = DefaultConfig()
	cfg.Functional = true
	cfg.ProtectedBytes = 1 << 30
	cfg.Benchmark.WorkingSet = 16 << 20
	if err := cfg.Validate(); err == nil {
		t.Error("full-mode functional run over 256 MiB accepted")
	}
	cfg.HashMode = "timing"
	if err := cfg.Validate(); err != nil {
		t.Errorf("timing-mode functional run over 256 MiB rejected: %v", err)
	}
}

// TestTimingModeRejectsAdversary pins the machine-level guard: a
// timing-only machine cannot hand out an adversary, because its checks
// are vacuous.
func TestTimingModeRejectsAdversary(t *testing.T) {
	cfg := smallCfg(SchemeCached)
	cfg.HashMode = "timing"
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Adversary() did not panic on a timing-only machine")
		}
	}()
	m.Adversary()
}
