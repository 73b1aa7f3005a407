package core

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestSteadyStateMissAllocs pins the engines' buffer discipline where it
// shows: a functional machine warmed over a span 16× its L2 (so nearly
// every access misses, evicts and, half the time, writes back) must then
// serve seeded 1–256 B loads and stores without allocating: every line
// buffer, chunk image, record buffer and MAC scratch changes hands instead
// of being made. Before line buffers had owners this read 8 objects per op
// for c, 6 for m, 144 for i, 21 for c with the dedicated
// verification cache and 2 for naive; all of them now read 0.
func TestSteadyStateMissAllocs(t *testing.T) {
	type variant struct {
		name   string
		scheme Scheme
		vc     int
	}
	var variants []variant
	for _, s := range []Scheme{SchemeNaive, SchemeCached, SchemeMulti, SchemeIncr} {
		variants = append(variants, variant{string(s) + "/full", s, 0})
	}
	variants = append(variants, variant{"c/full/verify-cache", SchemeCached, 64})

	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			cfg := smallCfg(v.scheme)
			cfg.VerifyCacheLines = v.vc
			cfg.ProtectedBytes = 2 << 20 // room for a span 16× the 64 KiB L2
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			span := 16 * uint64(cfg.L2Size)
			if span > m.ProgSpan() {
				t.Fatalf("program span %d cannot hold 16× the L2 (%d)", m.ProgSpan(), span)
			}
			rng := rand.New(rand.NewSource(24))
			buf := make([]byte, 256)
			op := func() {
				off := uint64(rng.Int63n(int64(span)))
				p := buf[:1+rng.Intn(256)]
				var err error
				if rng.Intn(2) == 0 {
					err = m.StoreBytes(off, p)
				} else {
					err = m.LoadBytes(off, p)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 40_000; i++ {
				op()
			}
			// AllocsPerRun rounds down to whole objects per op, so the
			// window's mallocs are counted directly. The free lists grow to
			// the deepest write-back nesting seen, and a deeper one can still
			// turn up after the warm-up: that is one make per new level, not
			// per miss, so a handful in 5 000 ops passes and one per op fails.
			const ops, stray = 5_000, 5
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < ops; i++ {
				op()
			}
			runtime.ReadMemStats(&after)
			n := after.Mallocs - before.Mallocs
			t.Logf("%s: %d allocations in %d ops", v.name, n, ops)
			if n > stray {
				t.Errorf("%d allocations in %d steady-state ops, want 0 (at most %d for a new nesting depth)", n, ops, stray)
			}
			if v := m.Sys.Stat.Violations; v != 0 {
				t.Errorf("%d violations on clean traffic", v)
			}
		})
	}
}

// TestSteadyStateFlushAllocs pins a checkpoint's cadence at zero
// allocations: a warmed machine stores a round and flushes, over and over.
// The flush lists its dirty lines into storage the engines own, pass after
// pass, and the refills of the next round take the line buffers the flush
// released, so neither allocates. Listing the lines into a fresh slice on
// every pass cost svc-log's checkpoints about 0.38 MB each; a free list
// that kept only 32 of the buffers a flush released read 85–92
// allocations in 20 flushes with a dedicated verification cache, and a
// refill round made back what the flush had dropped.
func TestSteadyStateFlushAllocs(t *testing.T) {
	for _, vc := range []int{0, 64} {
		for _, scheme := range []Scheme{SchemeBase, SchemeNaive, SchemeCached, SchemeMulti, SchemeIncr} {
			name := string(scheme)
			if vc > 0 {
				name += "/verify-cache"
			}
			t.Run(name, func(t *testing.T) {
				cfg := smallCfg(scheme)
				cfg.VerifyCacheLines = vc
				m, err := NewMachine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(25))
				buf := make([]byte, 64)
				round := func() {
					for i := 0; i < 400; i++ {
						if err := m.StoreBytes(uint64(rng.Int63n(int64(cfg.L2Size))), buf[:1+rng.Intn(64)]); err != nil {
							t.Fatal(err)
						}
					}
				}
				for i := 0; i < 50; i++ {
					round()
					m.Flush()
				}
				const rounds = 20
				var mallocs uint64
				var before, after runtime.MemStats
				for i := 0; i < rounds; i++ {
					runtime.ReadMemStats(&before)
					round()
					m.Flush()
					runtime.ReadMemStats(&after)
					mallocs += after.Mallocs - before.Mallocs
				}
				// Per round, rounded down as testing.AllocsPerRun rounds:
				// the count is process-wide, and now and then takes in a
				// stray allocation of the runtime's own.
				if mallocs/rounds != 0 {
					t.Errorf("%d allocations in %d steady-state rounds and flushes, want 0 per round", mallocs, rounds)
				}
				if v := m.Sys.Stat.Violations; v != 0 {
					t.Errorf("%d violations on clean traffic", v)
				}
			})
		}
	}
}

// TestRefillAfterEvictProtectedAllocs: EvictProtected hands the buffer of
// every line it drops back to its cache, so reading the emptied caches
// full again makes no buffer. Dropping them instead made one per line.
func TestRefillAfterEvictProtectedAllocs(t *testing.T) {
	for _, vc := range []int{0, 64} {
		for _, scheme := range []Scheme{SchemeNaive, SchemeCached, SchemeMulti, SchemeIncr} {
			name := string(scheme)
			if vc > 0 {
				name += "/verify-cache"
			}
			t.Run(name, func(t *testing.T) {
				cfg := smallCfg(scheme)
				cfg.VerifyCacheLines = vc
				m, err := NewMachine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				buf := make([]byte, 64)
				refill := func() {
					for off := uint64(0); off < uint64(cfg.L2Size); off += 64 {
						if err := m.LoadBytes(off, buf); err != nil {
							t.Fatal(err)
						}
					}
				}
				for i := 0; i < 3; i++ {
					refill()
					m.EvictProtected()
				}
				const rounds = 5
				var mallocs uint64
				var before, after runtime.MemStats
				for i := 0; i < rounds; i++ {
					runtime.ReadMemStats(&before)
					refill()
					runtime.ReadMemStats(&after)
					mallocs += after.Mallocs - before.Mallocs
					m.EvictProtected()
				}
				if m.L2.ResidentLines() != 0 {
					t.Fatal("EvictProtected left lines resident")
				}
				if mallocs/rounds != 0 {
					t.Errorf("%d allocations in %d refills after EvictProtected, want 0 per refill", mallocs, rounds)
				}
			})
		}
	}
}
