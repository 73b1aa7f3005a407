package core

import (
	"bytes"
	"math/rand"
	"testing"

	"memverify/internal/cache"
	"memverify/internal/hashalg"
	"memverify/internal/integrity"
)

// vcInvariant checks, for every chunk, that the chunk's current stored
// record (the cached slot copy when its block is resident, else the slot
// bytes in memory) equals the hash of the chunk's memory image, and that
// no block is resident in both caches. Hash-record schemes only (no MAC
// stamp bits).
func vcInvariant(t *testing.T, m *Machine, op int) {
	t.Helper()
	s := m.Sys
	l := s.Layout
	img := make([]byte, l.ChunkSize)
	slot := make([]byte, l.HashSize)
	for c := uint64(0); c < l.TotalChunks; c++ {
		s.Mem.Read(l.ChunkAddr(c), img)
		want := hashalg.Truncate(s.Alg.Sum(img), l.HashSize)
		var got []byte
		if addr, ok := l.HashAddr(c); ok {
			owner := s.L2
			if s.VC != nil && l.IsInterior(l.ChunkOf(addr)) {
				owner = s.VC
			}
			ba := s.L2.BlockAddr(addr)
			if ln := owner.Peek(ba); ln != nil {
				got = owner.Bytes(ln)[addr-ba : addr-ba+uint64(l.HashSize)]
			} else {
				s.Mem.Read(addr, slot)
				got = slot
			}
			if other := s.VC; other != nil {
				if owner == s.VC {
					other = s.L2
				}
				if other.Peek(ba) != nil && owner.Peek(ba) != nil {
					t.Fatalf("op %d: chunk %d slot block %#x resident in both caches", op, c, ba)
				}
			}
		} else {
			got = s.Root
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("op %d: chunk %d: stored record diverged from hash(memory image)", op, c)
		}
	}
}

// TestDedicatedVerifyCacheConsistency drives a multi-block machine with a
// tiny dedicated verification cache through random traffic and checks the
// store invariant — every stored record covers exactly the chunk's memory
// image — after every few operations. The 8-set cache makes same-chunk
// victim evictions inside fillChunk routine; this caught a stale clean
// re-install of a just-written-back sibling that a shared L2's set count
// had made astronomically rare (the bug surfaced as false violations on
// untampered traffic under schemes m and i).
func TestDedicatedVerifyCacheConsistency(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		for _, scheme := range []Scheme{SchemeMulti, SchemeIncr} {
			cfg := DefaultConfig()
			cfg.Scheme = scheme
			cfg.ChunkBlocks = 4
			cfg.Functional = true
			cfg.ProtectedBytes = 32 << 20
			cfg.L2Size = 16 << 10
			cfg.L2Ways = 2
			cfg.VerifyCacheLines = 32
			cfg.VerifyCacheAssoc = 4
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.ObserveViolations(func(v *integrity.ViolationError) {
				t.Fatalf("seed %d %s: false violation on clean traffic: %v", seed, scheme, v)
			})
			rng := rand.New(rand.NewSource(seed))
			mirror := map[uint64]byte{}
			buf := make([]byte, 8)
			for op := 0; op < 4000; op++ {
				addr := uint64(rng.Intn(1<<20)) &^ 7
				if rng.Intn(2) == 0 {
					for i := range buf {
						buf[i] = byte(rng.Int())
						mirror[addr+uint64(i)] = buf[i]
					}
					if err := m.StoreBytes(addr, buf); err != nil {
						t.Fatalf("seed %d %s op %d store: %v", seed, scheme, op, err)
					}
				} else {
					if err := m.LoadBytes(addr, buf); err != nil {
						t.Fatalf("seed %d %s op %d load: %v", seed, scheme, op, err)
					}
					for i := range buf {
						if want, ok := mirror[addr+uint64(i)]; ok && buf[i] != want {
							t.Fatalf("seed %d %s op %d: delivered data diverged at %#x", seed, scheme, op, addr+uint64(i))
						}
					}
				}
				// The MAC stamp bits make the i-scheme record a function
				// of write-back history, so the hash oracle only applies
				// to m; i still gets the mirror and false-violation checks.
				if scheme == SchemeMulti && op%100 == 0 {
					vcInvariant(t, m, op)
				}
			}
		}
	}
}

// TestSuitesUnderPoison reruns the verify-cache consistency harness and
// the halt-policy, nested-write-back and count-identity suites with every
// released line buffer overwritten with 0xA5 as its cache takes it back:
// a use after release — a write-back still forwarding from a victim's
// buffer, an image composed through a stale alias — then hashes the poison
// and fails the same assertions on a false violation, diverged data or a
// root mismatch, instead of passing because the bytes were still intact.
func TestSuitesUnderPoison(t *testing.T) {
	cache.PoisonReleased = true
	defer func() { cache.PoisonReleased = false }()
	for _, s := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"DedicatedVerifyCacheConsistency", TestDedicatedVerifyCacheConsistency},
		{"FillSurvivesPathConflict", TestFillSurvivesPathConflict},
		{"SpanCountIdentity", TestSpanCountIdentity},
		{"CleanRunNoFalsePositives", TestCleanRunNoFalsePositives},
		{"HaltPolicy", TestHaltPolicy},
	} {
		t.Run(s.name, s.run)
	}
}
