package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"memverify/internal/trace"
)

// cleanConfig is a small functional machine for falsification-free runs.
func cleanConfig(scheme Scheme) Config {
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	cfg.Functional = true
	cfg.HashAlg = "fnv128"
	cfg.ProtectedBytes = 256 << 10
	cfg.L2Size = 32 << 10
	cfg.Benchmark = trace.Uniform("cleanrun", 64<<10)
	cfg.Benchmark.CodeSet = 8 << 10
	cfg.Instructions = 60_000
	cfg.Warmup = 10_000
	if scheme == SchemeMulti || scheme == SchemeIncr {
		cfg.ChunkBlocks = 2
	}
	return cfg
}

// TestCleanRunNoFalsePositives is the false-positive regression gate: a
// full simulated run with no adversary must flag zero violations under
// every scheme.
func TestCleanRunNoFalsePositives(t *testing.T) {
	for _, scheme := range []Scheme{SchemeNaive, SchemeCached, SchemeMulti, SchemeIncr} {
		t.Run(fmt.Sprintf("%s-full", scheme), func(t *testing.T) {
			m, err := NewMachine(cleanConfig(scheme))
			if err != nil {
				t.Fatal(err)
			}
			mt := m.Run()
			if mt.Violations != 0 {
				t.Fatalf("clean run flagged %d violations (first: %v)", mt.Violations, m.Sys.First)
			}
			if m.Sys.First != nil {
				t.Fatalf("clean run recorded a first violation: %v", m.Sys.First)
			}
			if m.Halted() {
				t.Fatalf("clean run halted the machine")
			}
		})
	}
}

// TestHaltPolicy pins the §5.8 security-exception semantics: once a
// violation is detected under ViolationPolicy "halt", every subsequent
// load and store returns ErrHalted.
func TestHaltPolicy(t *testing.T) {
	cfg := cleanConfig(SchemeCached)
	cfg.ViolationPolicy = "halt"
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.StoreBytes(0, bytes.Repeat([]byte{0x42}, 64)); err != nil {
		t.Fatal(err)
	}
	m.EvictProtected()
	m.Adversary().Corrupt(m.ProgAddr(3), 0x10)
	if err := m.LoadBytes(0, make([]byte, 64)); err == nil {
		t.Fatal("tampered load not flagged")
	}
	if !m.Halted() {
		t.Fatal("machine not halted after detection")
	}
	if m.HaltCause() == nil {
		t.Fatal("halted machine has no recorded cause")
	}
	if err := m.LoadBytes(512, make([]byte, 8)); !errors.Is(err, ErrHalted) {
		t.Fatalf("load after halt returned %v, want ErrHalted", err)
	}
	if err := m.StoreBytes(512, []byte{1}); !errors.Is(err, ErrHalted) {
		t.Fatalf("store after halt returned %v, want ErrHalted", err)
	}
}

// TestRecordPolicyContinues pins the default containment behaviour: under
// "record" the violation is counted and execution continues.
func TestRecordPolicyContinues(t *testing.T) {
	m, err := NewMachine(cleanConfig(SchemeCached))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.StoreBytes(0, bytes.Repeat([]byte{0x42}, 64)); err != nil {
		t.Fatal(err)
	}
	m.EvictProtected()
	m.Adversary().Corrupt(m.ProgAddr(3), 0x10)
	if err := m.LoadBytes(0, make([]byte, 64)); err == nil {
		t.Fatal("tampered load not flagged")
	}
	if m.Halted() {
		t.Fatal("record policy halted the machine")
	}
	if err := m.LoadBytes(4096, make([]byte, 8)); err != nil {
		t.Fatalf("clean load after recorded violation failed: %v", err)
	}
	if got := m.Sys.Stat.Violations; got == 0 {
		t.Fatal("violation not recorded")
	}
}

// TestRetryPolicyDistinguishes pins the retry policy's classification at
// machine level: a transient glitch is suppressed (a transient retry, no
// violation), persistent tampering is flagged (a persistent retry).
func TestRetryPolicyDistinguishes(t *testing.T) {
	cfg := cleanConfig(SchemeCached)
	cfg.ViolationPolicy = "retry"
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.StoreBytes(0, bytes.Repeat([]byte{0x42}, 64)); err != nil {
		t.Fatal(err)
	}
	m.EvictProtected()

	// Transient: the next read of the chunk sees corrupted bytes, memory
	// stays clean; the retry probe verifies and suppresses the violation.
	adv := m.Adversary()
	base := m.Layout.ChunkAddr(m.Layout.ChunkOf(m.ProgAddr(0)))
	adv.Glitch(base, uint64(m.Layout.ChunkSize), 0x40, 1)
	if err := m.LoadBytes(0, make([]byte, 64)); err != nil {
		t.Fatalf("glitched load flagged a violation despite retry: %v", err)
	}
	if got := m.Sys.Stat.RetriesTransient; got != 1 {
		t.Fatalf("RetriesTransient = %d, want 1", got)
	}
	if got := m.Sys.Stat.Violations; got != 0 {
		t.Fatalf("transient glitch recorded %d violations", got)
	}

	// Persistent: stored bytes corrupted; the retry probe fails again.
	m.EvictProtected()
	adv.Corrupt(m.ProgAddr(7), 0x01)
	if err := m.LoadBytes(0, make([]byte, 64)); err == nil {
		t.Fatal("persistent tamper not flagged under retry")
	}
	if got := m.Sys.Stat.RetriesPersistent; got == 0 {
		t.Fatal("persistent tamper did not advance RetriesPersistent")
	}
	if got := m.Sys.Stat.Violations; got == 0 {
		t.Fatal("persistent tamper not recorded as a violation")
	}
}
