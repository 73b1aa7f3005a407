package core

import (
	"reflect"
	"testing"
)

var allSchemes = []Scheme{SchemeBase, SchemeNaive, SchemeCached, SchemeMulti, SchemeIncr}

// TestFunctionalMatchesTimingOnly pins the functional/timing split: moving
// real bytes and computing real digests may never change what the
// simulator measures. Every scheme must produce identical Metrics with
// Functional on and off.
func TestFunctionalMatchesTimingOnly(t *testing.T) {
	for _, s := range allSchemes {
		s := s
		t.Run(string(s), func(t *testing.T) {
			run := func(functional bool) Metrics {
				cfg := smallCfg(s)
				cfg.Functional = functional
				mt, err := Run(cfg)
				if err != nil {
					t.Fatalf("functional=%v: %v", functional, err)
				}
				return mt
			}
			full := run(true)
			if got := run(false); !reflect.DeepEqual(got, full) {
				t.Errorf("timing-only metrics diverge from functional:\nfunctional %+v\ntiming     %+v", full, got)
			}
		})
	}
}

// TestHashModeValidate pins HashMode's one legal value: a functional run
// computes every digest, so only "" and "full" validate.
func TestHashModeValidate(t *testing.T) {
	for _, mode := range []string{"", "full"} {
		cfg := DefaultConfig()
		cfg.HashMode = mode
		if err := cfg.Validate(); err != nil {
			t.Errorf("hash mode %q rejected: %v", mode, err)
		}
	}
	for _, mode := range []string{"timing", "memo", "bogus"} {
		cfg := DefaultConfig()
		cfg.HashMode = mode
		if err := cfg.Validate(); err == nil {
			t.Errorf("hash mode %q accepted", mode)
		}
	}
}
