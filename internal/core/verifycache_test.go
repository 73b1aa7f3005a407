package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"memverify/internal/cache"
)

// driveWorkload runs a seeded store/load mix — sequential sweeps
// interleaved with random accesses — against m and
// returns every loaded byte concatenated, then the final root after a
// flush.
//
// After the flush it also performs a verified cold reload of the first
// pages (EvictProtected forces every block back through the checking
// path against the just-flushed root), whose bytes land in loaded too —
// so loaded equality across machines implies identical final memory
// contents AND a root each machine's own tree accepts.
func driveWorkload(t *testing.T, m *Machine, seed int64) (loaded, root []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	span := m.ProgSpan()
	buf := make([]byte, 256)
	for i := 0; i < 60; i++ {
		switch rng.Intn(3) {
		case 0: // sequential sweep of stores then loads
			base := uint64(rng.Intn(int(span - 4096)))
			rng.Read(buf[:128])
			for k := 0; k < 8; k++ {
				if err := m.StoreBytes(base+uint64(k*512), buf[:128]); err != nil {
					t.Fatal(err)
				}
			}
			for k := 0; k < 8; k++ {
				if err := m.LoadBytes(base+uint64(k*512), buf[:128]); err != nil {
					t.Fatal(err)
				}
				loaded = append(loaded, buf[:128]...)
			}
		case 1: // random store
			off := uint64(rng.Intn(int(span - 256)))
			n := 1 + rng.Intn(255)
			rng.Read(buf[:n])
			if err := m.StoreBytes(off, buf[:n]); err != nil {
				t.Fatal(err)
			}
		default: // random load
			off := uint64(rng.Intn(int(span - 256)))
			n := 1 + rng.Intn(255)
			if err := m.LoadBytes(off, buf[:n]); err != nil {
				t.Fatal(err)
			}
			loaded = append(loaded, buf[:n]...)
		}
	}
	m.Flush()
	root = append([]byte(nil), m.Sys.Root...)
	m.EvictProtected()
	cold := make([]byte, 16<<10)
	if err := m.LoadBytes(0, cold); err != nil {
		t.Fatal(err)
	}
	loaded = append(loaded, cold...)
	m.Flush()
	return loaded, root
}

// TestVerifyCacheEquivalence is the semantic-invisibility gate of the
// dedicated verification cache: over every tree scheme, a machine whose tree nodes live in a dedicated cache must deliver
// byte-identical data (including a verified cold reload against the final
// root) and converge to the same root as the shared-L2 baseline (metrics
// may differ; bytes may not), with zero violations anywhere.
//
// Scheme i is the one exception on raw root bytes: its XorMAC record
// packs per-block write-back stamp bits into the encrypted tag, so the
// root is a function of write-back *history*, not just memory contents —
// a different cache geometry legitimately lands on a different (equally
// valid) root. There the verified cold reload inside driveWorkload is
// the equivalence check: it proves each machine's root accepts the same
// final memory image.
func TestVerifyCacheEquivalence(t *testing.T) {
	for _, scheme := range []Scheme{SchemeNaive, SchemeCached, SchemeMulti, SchemeIncr} {
		t.Run(fmt.Sprintf("%s-full", scheme), func(t *testing.T) {
			base, err := NewMachine(cleanConfig(scheme))
			if err != nil {
				t.Fatal(err)
			}
			wantData, wantRoot := driveWorkload(t, base, 42)
			if base.Sys.Stat.Violations != 0 {
				t.Fatalf("baseline flagged %d violations", base.Sys.Stat.Violations)
			}
			t.Run("vc", func(t *testing.T) {
				cfg := cleanConfig(scheme)
				cfg.VerifyCacheLines = 64
				cfg.VerifyCacheAssoc = 4
				m, err := NewMachine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				gotData, gotRoot := driveWorkload(t, m, 42)
				if !bytes.Equal(gotData, wantData) {
					t.Fatalf("delivered data diverged from the shared-L2 baseline")
				}
				if scheme != SchemeIncr && !bytes.Equal(gotRoot, wantRoot) {
					t.Fatalf("final root diverged: got %x, want %x", gotRoot, wantRoot)
				}
				if m.Sys.Stat.Violations != 0 {
					t.Fatalf("dedicated-VC machine flagged %d violations (first: %v)",
						m.Sys.Stat.Violations, m.Sys.First)
				}
			})
		})
	}
}

// TestDedicatedVerifyCacheRouting pins the routing contract: with a
// dedicated verification cache configured, interior (hash) chunks live in
// the VC — the shared L2 sees no hash-class traffic at all — and the
// metrics report the VC's activity.
func TestDedicatedVerifyCacheRouting(t *testing.T) {
	cfg := cleanConfig(SchemeCached)
	cfg.VerifyCacheLines = 64
	cfg.VerifyCacheAssoc = 4
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveWorkload(t, m, 11)
	if m.VC == nil {
		t.Fatal("machine built no dedicated verification cache")
	}
	mt := m.Snapshot()
	if mt.VCAccesses == 0 {
		t.Fatal("dedicated verification cache saw no accesses")
	}
	if got := mt.L2Stats.Accesses[cache.Hash] + mt.L2Stats.Writes[cache.Hash]; got != 0 {
		t.Fatalf("shared L2 saw %d hash-class accesses despite the dedicated cache", got)
	}
	if mt.VCHitRate <= 0 || mt.VCHitRate > 1 {
		t.Fatalf("implausible VC hit rate %v", mt.VCHitRate)
	}
}

// TestBaseSchemeBuildsNoVerifyCache pins the honest-no-op contract: the
// base scheme has no tree, so a VC request must not build one.
func TestBaseSchemeBuildsNoVerifyCache(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheme = SchemeBase
	cfg.VerifyCacheLines = 64
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.VC != nil {
		t.Fatal("base scheme built a verification cache")
	}
}
