package chaos

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"testing"

	"memverify/internal/core"
	"memverify/internal/shard"
)

// testCrashConfig shrinks the campaign for test runtime: 30 legs cover
// every kind (including replay-dir and the five chain legs) twice and all
// seven kill stages.
func testCrashConfig(scheme core.Scheme) CrashConfig {
	cfg := DefaultCrashConfig(scheme)
	cfg.Injections = 30
	return cfg
}

func assertCrashGates(t *testing.T, rep *CrashReport) {
	t.Helper()
	s := rep.Summary
	if s.FalsePositives != 0 {
		t.Errorf("%d clean kill/restart cycles classified as violations", s.FalsePositives)
	}
	if s.RootMismatches != 0 {
		t.Errorf("%d clean recoveries failed to reproduce the sealed root", s.RootMismatches)
	}
	if s.Missed != 0 {
		t.Errorf("%d on-disk tampering legs went undetected", s.Missed)
	}
	if s.Tampers > 0 && s.DetectionRate != 1.0 {
		t.Errorf("detection rate %.4f, want 1.0", s.DetectionRate)
	}
	if s.Kills == 0 || s.Tampers == 0 {
		t.Errorf("degenerate campaign: %d kills, %d tampers", s.Kills, s.Tampers)
	}
	if s.Total >= len(crashKinds) && (s.DeltaLegs == 0 || s.DeltaLegs == s.Total) {
		t.Errorf("campaign of %d legs has %d that wrote a delta: it attacks one kind of segment only", s.Total, s.DeltaLegs)
	}
	for _, inj := range rep.Injections {
		if inj.Kind == CrashKill && inj.Epoch != 1 && inj.Epoch != 2 {
			t.Errorf("leg %d (%s@%s): recovered to epoch %d, want 1 or 2", inj.ID, inj.Kind, inj.Stage, inj.Epoch)
		}
	}
}

// TestCrashCampaignAllSchemes runs the campaign's gates over every
// persisted scheme. The i leg checks the refusal instead: i is not
// persisted, so the campaign refuses it with the store's
// *shard.SettingError before it writes anything.
func TestCrashCampaignAllSchemes(t *testing.T) {
	for _, scheme := range []core.Scheme{core.SchemeNaive, core.SchemeCached, core.SchemeMulti, core.SchemeIncr} {
		t.Run(string(scheme), func(t *testing.T) {
			if scheme == core.SchemeIncr {
				cfg := testCrashConfig(scheme)
				cfg.Dir = t.TempDir()
				var se *shard.SettingError
				if rep, err := RunCrash(cfg); !errors.As(err, &se) || se.Field != "Scheme" || rep != nil {
					t.Fatalf("RunCrash for scheme i: %v, want the Scheme refusal", err)
				}
				if entries, _ := os.ReadDir(cfg.Dir); len(entries) != 0 {
					t.Fatalf("the refused campaign wrote %d entries", len(entries))
				}
				return
			}
			rep, err := RunCrash(testCrashConfig(scheme))
			if err != nil {
				t.Fatalf("RunCrash: %v", err)
			}
			assertCrashGates(t, rep)
		})
	}
}

func TestCrashCampaignDeterministic(t *testing.T) {
	cfg := testCrashConfig(core.SchemeCached)
	cfg.Injections = 7
	var out [2]bytes.Buffer
	for i := range out {
		rep, err := RunCrash(cfg)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		enc := json.NewEncoder(&out[i])
		if err := enc.Encode(rep); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Fatal("identical crash configs produced different reports")
	}
}

// TestCrashCampaignReplayDirDetected pins the anchor leg specifically:
// every whole-directory replay must classify as a violation — without
// the external anchor these directories are internally flawless.
func TestCrashCampaignReplayDirDetected(t *testing.T) {
	rep, err := RunCrash(testCrashConfig(core.SchemeCached))
	if err != nil {
		t.Fatalf("RunCrash: %v", err)
	}
	var legs int
	for _, inj := range rep.Injections {
		if inj.Kind != CrashReplayDir {
			continue
		}
		legs++
		if !inj.Detected {
			t.Errorf("leg %d: whole-directory replay went undetected (outcome %s)", inj.ID, inj.Outcome)
		}
	}
	if legs == 0 {
		t.Fatal("campaign ran no replay-dir legs")
	}
}

func TestCrashCampaignShardedStore(t *testing.T) {
	cfg := testCrashConfig(core.SchemeCached)
	cfg.Shards = 4
	cfg.ProtectedBytes = 64 << 10
	rep, err := RunCrash(cfg)
	if err != nil {
		t.Fatalf("RunCrash: %v", err)
	}
	assertCrashGates(t, rep)
}

func TestCrashCampaignHaltPolicy(t *testing.T) {
	cfg := testCrashConfig(core.SchemeCached)
	cfg.Policy = "halt"
	cfg.Injections = 7
	rep, err := RunCrash(cfg)
	if err != nil {
		t.Fatalf("RunCrash: %v", err)
	}
	assertCrashGates(t, rep)
}
