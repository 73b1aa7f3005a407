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
