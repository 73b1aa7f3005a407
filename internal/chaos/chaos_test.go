package chaos

import (
	"bytes"
	"fmt"
	"testing"

	"memverify/internal/core"
)

// treeSchemes are the verification schemes a campaign attacks.
var treeSchemes = []core.Scheme{core.SchemeNaive, core.SchemeCached, core.SchemeMulti, core.SchemeIncr}

// TestCampaignDeterministic pins the CI-gate property that identical seeds
// produce byte-identical reports.
func TestCampaignDeterministic(t *testing.T) {
	cfg := DefaultConfig(core.SchemeCached)
	cfg.Injections = 20

	var out [2]bytes.Buffer
	for i := range out {
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if err := rep.WriteCSV(&out[i]); err != nil {
			t.Fatalf("csv %d: %v", i, err)
		}
		if err := rep.WriteJSON(&out[i]); err != nil {
			t.Fatalf("json %d: %v", i, err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Fatalf("identical seeds produced different reports")
	}

	cfg.Seed = 2
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var other bytes.Buffer
	if err := rep.WriteCSV(&other); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(out[0].Bytes(), other.Bytes()) {
		t.Fatalf("different seeds produced identical campaigns")
	}
}

// TestCampaignCI is the seeded regression gate CI runs under the race
// detector: a small campaign per scheme must detect every persistent
// injection with zero misses.
func TestCampaignCI(t *testing.T) {
	for _, scheme := range treeSchemes {
		t.Run(fmt.Sprintf("%s-full", scheme), func(t *testing.T) {
			cfg := DefaultConfig(scheme)
			cfg.Injections = 15
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertAllDetected(t, rep)
		})
	}
}

// TestCampaignAcceptance is the issue's headline claim: at least 1000
// injections per tree scheme, 100% detection of post-eviction tampering.
// Skipped in -short mode and under the race detector (TestCampaignCI
// covers those configurations with a smaller budget).
func TestCampaignAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("thousand-injection campaign skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("thousand-injection campaign skipped under the race detector")
	}
	for _, scheme := range treeSchemes {
		t.Run(string(scheme), func(t *testing.T) {
			cfg := DefaultConfig(scheme)
			cfg.Injections = 1000
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertAllDetected(t, rep)
			if got := rep.Summary.DetectionRate; got != 1.0 {
				t.Fatalf("detection rate = %v, want 1.0", got)
			}
		})
	}
}

// TestCampaignVerifyCache is the security side of the dedicated
// verification cache: with tree nodes in their own cache, every tree
// scheme must still detect every persistent injection, and the clean-run
// side must stay free of false positives.
func TestCampaignVerifyCache(t *testing.T) {
	for _, scheme := range treeSchemes {
		t.Run(string(scheme), func(t *testing.T) {
			cfg := DefaultConfig(scheme)
			cfg.Injections = 15
			cfg.VerifyCacheLines = 32
			cfg.VerifyCacheAssoc = 4
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertAllDetected(t, rep)
			if n, err := CleanViolations(cfg); err != nil {
				t.Fatal(err)
			} else if n != 0 {
				t.Fatalf("clean run flagged %d violations with a dedicated VC", n)
			}
		})
	}
}

// TestCampaignHaltPolicy checks that a campaign runs to completion under
// the halt policy: detection latencies are still measured (the first
// violation is what halts), and nothing is missed.
func TestCampaignHaltPolicy(t *testing.T) {
	cfg := DefaultConfig(core.SchemeCached)
	cfg.Policy = "halt"
	cfg.Injections = 15
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertAllDetected(t, rep)
}

// TestCleanViolations asserts the false-positive side of the gate: the
// campaign's full access pattern with no adversary flags nothing, for
// every scheme.
func TestCleanViolations(t *testing.T) {
	for _, scheme := range treeSchemes {
		t.Run(fmt.Sprintf("%s-full", scheme), func(t *testing.T) {
			n, err := CleanViolations(DefaultConfig(scheme))
			if err != nil {
				t.Fatal(err)
			}
			if n != 0 {
				t.Fatalf("clean run flagged %d violations", n)
			}
		})
	}
}

// assertAllDetected fails the test if any persistent injection was missed.
func assertAllDetected(t *testing.T, rep *Report) {
	t.Helper()
	for _, inj := range rep.Injections {
		if inj.Outcome == OutcomeMissed {
			t.Errorf("injection %d (%s/%s, chunk %d, addr %#x) was missed",
				inj.ID, inj.Kind, inj.Target, inj.Chunk, inj.Addr)
		}
		if inj.Healed {
			t.Errorf("injection %d (%s/%s): tampered region healed by program traffic (campaign invariant broken)",
				inj.ID, inj.Kind, inj.Target)
		}
	}
	if rep.Summary.Missed != 0 {
		t.Fatalf("%d/%d injections missed", rep.Summary.Missed, rep.Summary.Total)
	}
}
