package core

import (
	"runtime"
	"testing"

	"memverify/internal/trace"
)

// pointConfig is one timing point of the paper's sweeps: Table 1 at
// DefaultConfig on swim, with the chunk the scheme needs.
func pointConfig(s Scheme) Config {
	cfg := DefaultConfig()
	cfg.Scheme = s
	cfg.Benchmark = trace.Swim
	if s == SchemeMulti || s == SchemeIncr {
		cfg.ChunkBlocks = 2
	}
	return cfg
}

// BenchmarkNewMachine is what every timing point of a figure sweep pays
// before its first instruction. Its B/op is the machine's construction
// cost, most of it the three caches' line arrays.
func BenchmarkNewMachine(b *testing.B) {
	for _, s := range []Scheme{SchemeBase, SchemeCached} {
		b.Run(string(s), func(b *testing.B) {
			cfg := pointConfig(s)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewMachine(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTimingMachineConstructionBytes pins what a timing point allocates
// to build its machine. The L1s and the L2 of a timing machine carry no
// bytes, so they are their 24-byte lines and nothing else: 48 KiB per L1
// and 384 KiB for the 1 MiB L2, ≈ 664 KiB in all with the rest of the
// machine (1 288 KiB with 48-byte lines and a slice header per set). The
// least of three builds is taken, so that nothing else the process
// allocates meanwhile counts.
func TestTimingMachineConstructionBytes(t *testing.T) {
	const bound = 700 << 10
	for _, s := range []Scheme{SchemeBase, SchemeNaive, SchemeCached, SchemeMulti, SchemeIncr} {
		cfg := pointConfig(s)
		least := ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := NewMachine(cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%s: NewMachine allocated %d KiB", s, least>>10)
		if least > bound {
			t.Errorf("%s: NewMachine allocated %d KiB, want at most %d KiB", s, least>>10, bound>>10)
		}
	}
}
