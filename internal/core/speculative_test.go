package core

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"memverify/internal/integrity"
)

// specCfg returns the small functional configuration with the speculative
// pipeline armed.
func specCfg(scheme Scheme) Config {
	cfg := smallCfg(scheme)
	cfg.Speculative = true
	return cfg
}

// normalizeSpec zeroes the fields the speculative pipeline is allowed to
// change: timing (cycles, IPC, utilization, the pipeline's own counters)
// and background verification traffic (walk coalescing skips ancestor
// re-reads, so check counts, extra reads, hash work and hash-class bus
// bytes shrink). Everything functional must survive untouched: committed
// instructions, delivered loads/stores, L2 behaviour, demand traffic,
// write-backs, data-class bus bytes and detected violations.
func normalizeSpec(mt Metrics) Metrics {
	mt.Result.Cycles = 0
	mt.IPC = 0
	mt.BusUtilization = 0
	mt.Spec = integrity.SpecStats{}
	mt.IntegrityStats.Checks = 0
	mt.IntegrityStats.ExtraBlockReads = 0
	mt.IntegrityStats.ExtraWriteBackReads = 0
	mt.ExtraPerMiss = 0
	mt.ExtraPerMissAll = 0
	mt.BusBytes = 0
	mt.BusHashBytes = 0
	mt.HashOps = 0
	mt.HashBytesHashed = 0
	mt.DRAMReads = 0
	return mt
}

// TestSpeculativeMetricsEquivalence is the cross-mode equivalence suite
// extended to the speculative pipeline: over every scheme and hash
// execution mode, a speculative run must match its blocking twin on all
// functional metrics — the pipeline may only move cycles and background
// verification traffic.
func TestSpeculativeMetricsEquivalence(t *testing.T) {
	for _, s := range allSchemes {
		for _, mode := range []string{"full", "timing"} {
			s, mode := s, mode
			t.Run(string(s)+"/"+mode, func(t *testing.T) {
				run := func(spec bool) Metrics {
					cfg := smallCfg(s)
					cfg.HashMode = mode
					cfg.Speculative = spec
					mt, err := Run(cfg)
					if err != nil {
						t.Fatalf("speculative=%v: %v", spec, err)
					}
					return mt
				}
				blocking := normalizeSpec(run(false))
				speculative := normalizeSpec(run(true))
				if !reflect.DeepEqual(speculative, blocking) {
					t.Errorf("speculative functional metrics diverge from blocking:\nblocking    %+v\nspeculative %+v",
						blocking, speculative)
				}
			})
		}
	}
}

// TestSpeculativeDataRootEquivalence drives identical random direct-access
// traffic through a blocking and a speculative machine: every loaded byte
// and the final tree root must be identical — speculation is invisible in
// delivered data.
func TestSpeculativeDataRootEquivalence(t *testing.T) {
	for _, s := range allSchemes {
		for _, mode := range []string{"full", "timing"} {
			s, mode := s, mode
			t.Run(string(s)+"/"+mode, func(t *testing.T) {
				cfgB := smallCfg(s)
				cfgB.HashMode = mode
				cfgS := cfgB
				cfgS.Speculative = true
				mb, err := NewMachine(cfgB)
				if err != nil {
					t.Fatal(err)
				}
				ms, err := NewMachine(cfgS)
				if err != nil {
					t.Fatal(err)
				}
				span := uint64(64 << 10)
				rng := rand.New(rand.NewSource(7))
				for op := 0; op < 400; op++ {
					n := 1 + rng.Intn(200)
					off := rng.Uint64() % (span - uint64(n))
					if rng.Intn(2) == 0 {
						p := make([]byte, n)
						rng.Read(p)
						if err := mb.StoreBytes(off, p); err != nil {
							t.Fatal(err)
						}
						if err := ms.StoreBytes(off, p); err != nil {
							t.Fatal(err)
						}
					} else {
						pb := make([]byte, n)
						ps := make([]byte, n)
						if err := mb.LoadBytes(off, pb); err != nil {
							t.Fatal(err)
						}
						if err := ms.LoadBytes(off, ps); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(pb, ps) {
							t.Fatalf("op %d: speculative load at %d returned different bytes", op, off)
						}
					}
				}
				if err := ms.Barrier(); err != nil {
					t.Fatalf("clean-run barrier reported %v", err)
				}
				mb.Flush()
				ms.Flush()
				if !bytes.Equal(mb.Sys.Root, ms.Sys.Root) {
					t.Errorf("final roots diverge: blocking %x speculative %x", mb.Sys.Root, ms.Sys.Root)
				}
				if v := ms.Sys.Stat.Violations; v != 0 {
					t.Errorf("clean speculative run recorded %d violations", v)
				}
			})
		}
	}
}

// runInterleaved drives one machine through the seeded traffic pattern:
// mixed stores and loads, an optional mid-run corruption, barriers
// sprinkled according to barSeed (0 = no barriers: the blocking
// reference), and a final evict-and-reread sweep over the corrupted
// block. It reports whether any violation surfaced by the end.
func runInterleaved(t *testing.T, m *Machine, opSeed, barSeed int64, tampered bool) bool {
	t.Helper()
	span := uint64(32 << 10)
	ops := rand.New(rand.NewSource(opSeed))
	var bar *rand.Rand
	if barSeed != 0 {
		bar = rand.New(rand.NewSource(barSeed))
	}
	detected := false
	corruptAt := ops.Uint64() % span
	for op := 0; op < 250; op++ {
		n := 1 + ops.Intn(128)
		off := ops.Uint64() % (span - uint64(n))
		if ops.Intn(2) == 0 {
			p := make([]byte, n)
			ops.Read(p)
			if err := m.StoreBytes(off, p); err != nil {
				detected = true
			}
		} else {
			if err := m.LoadBytes(off, make([]byte, n)); err != nil {
				detected = true
			}
		}
		if bar != nil && bar.Float64() < 0.15 {
			if err := m.Barrier(); err != nil {
				detected = true
			}
		}
		if tampered && op == 125 {
			m.EvictProtected()
			m.Adversary().Corrupt(m.ProgAddr(corruptAt), 0xA5)
		}
	}
	// Final sweep: evict everything, re-read the corrupted block's
	// neighbourhood, and commit the epoch.
	m.EvictProtected()
	start := corruptAt &^ 63
	if start+64 > span {
		start = span - 64
	}
	if err := m.LoadBytes(start, make([]byte, 64)); err != nil {
		detected = true
	}
	if err := m.Barrier(); err != nil {
		detected = true
	}
	return detected || m.Sys.Stat.Violations > 0
}

// TestSpeculativeBarrierInterleavingProperty is the seeded property test:
// however barriers are interleaved with the traffic, the detection
// outcome never changes. Every speculative interleaving must agree with
// the blocking reference — including runs where a later full-block store
// legitimately rebuilds the tampered block's hashes before any read
// (§5.3), which no mode detects.
func TestSpeculativeBarrierInterleavingProperty(t *testing.T) {
	for _, scheme := range []Scheme{SchemeNaive, SchemeCached} {
		for seed := int64(1); seed <= 4; seed++ {
			for _, tampered := range []bool{false, true} {
				scheme, seed, tampered := scheme, seed, tampered
				name := string(scheme) + "/clean"
				if tampered {
					name = string(scheme) + "/tampered"
				}
				t.Run(name, func(t *testing.T) {
					newMachine := func(spec bool) *Machine {
						cfg := smallCfg(scheme)
						cfg.Speculative = spec
						m, err := NewMachine(cfg)
						if err != nil {
							t.Fatal(err)
						}
						return m
					}
					want := runInterleaved(t, newMachine(false), seed, 0, tampered)
					if tampered && seed != 2 && !want {
						// Seed 2's corruption is overwritten by a full-block
						// store before any read; the others must detect.
						t.Fatalf("blocking reference missed the tamper")
					}
					for trial := int64(1); trial <= 3; trial++ {
						got := runInterleaved(t, newMachine(true), seed, seed*977+trial, tampered)
						if got != want {
							t.Errorf("seed %d trial %d: speculative detected=%v, blocking reference %v",
								seed, trial, got, want)
						}
					}
				})
			}
		}
	}
}

// TestSpeculativeHaltPoisoning pins the late-violation containment
// contract under PolicyHalt: the tampered load itself returns clean (the
// check is still in flight), the next barrier surfaces the violation with
// the epoch that contained it, and every subsequent access is poisoned
// with ErrHalted.
func TestSpeculativeHaltPoisoning(t *testing.T) {
	cfg := specCfg(SchemeNaive)
	cfg.ViolationPolicy = "halt"
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.StoreBytes(0, bytes.Repeat([]byte{0x3c}, 64)); err != nil {
		t.Fatal(err)
	}
	// Two clean epochs first, so the attribution below is non-trivial.
	for i := 0; i < 2; i++ {
		if err := m.Barrier(); err != nil {
			t.Fatalf("clean barrier %d: %v", i, err)
		}
	}
	m.EvictProtected()
	m.Adversary().Corrupt(m.ProgAddr(8), 0xFF)
	if err := m.LoadBytes(0, make([]byte, 64)); err != nil {
		t.Fatalf("speculative load surfaced the violation inline: %v", err)
	}
	err = m.Barrier()
	if err == nil {
		t.Fatal("barrier after tampered load reported a clean epoch")
	}
	var v *integrity.ViolationError
	if !errors.As(err, &v) {
		t.Fatalf("barrier returned %T, want *ViolationError", err)
	}
	if v.Epoch != 2 {
		t.Errorf("violation attributed to epoch %d, want 2", v.Epoch)
	}
	if !m.Halted() {
		t.Error("machine not halted after the barrier resolved the violation")
	}
	if err := m.LoadBytes(0, make([]byte, 64)); !errors.Is(err, ErrHalted) {
		t.Errorf("post-halt load returned %v, want ErrHalted", err)
	}
}

// TestSpeculativeWindowBounds pins the bounded-window contract: a tiny
// window forces delivery stalls on a walk-heavy workload, and the stall
// counters say so.
func TestSpeculativeWindowBounds(t *testing.T) {
	cfg := specCfg(SchemeNaive)
	cfg.SpecWindow = 1
	mt, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Spec.Checks == 0 {
		t.Fatal("no speculative checks admitted")
	}
	// At admission the new check momentarily coexists with the oldest
	// one draining, so the peak may exceed the window by exactly one.
	if mt.Spec.PendingPeak > 2 {
		t.Errorf("window 1 saw pending peak %d", mt.Spec.PendingPeak)
	}
	if mt.Spec.WindowStalls == 0 {
		t.Error("window 1 never stalled delivery on a walk-heavy workload")
	}
	wide := specCfg(SchemeNaive)
	mtw, err := Run(wide)
	if err != nil {
		t.Fatal(err)
	}
	if mtw.IPC < mt.IPC {
		t.Errorf("default window IPC %.4f below window-1 IPC %.4f", mtw.IPC, mt.IPC)
	}
}
