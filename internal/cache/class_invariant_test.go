package cache

import (
	"testing"

	"memverify/internal/trace"
)

// TestFillRefillReclasses pins the resident-refill fix: refilling a
// resident line under a different traffic class must move the line (and
// the residency counters) to the new class.
func TestFillRefillReclasses(t *testing.T) {
	c := newTest(t, 1024, 2, 64, false)
	c.Fill(0x100, Data, nil)
	if c.ResidentLinesClass(Data) != 1 || c.ResidentLinesClass(Hash) != 0 {
		t.Fatalf("after data fill: data %d hash %d", c.ResidentLinesClass(Data), c.ResidentLinesClass(Hash))
	}
	c.Fill(0x100, Hash, nil)
	if c.ResidentLinesClass(Data) != 0 || c.ResidentLinesClass(Hash) != 1 {
		t.Errorf("after hash refill: data %d hash %d", c.ResidentLinesClass(Data), c.ResidentLinesClass(Hash))
	}
	if ln := c.Peek(0x100); ln.Class != Hash {
		t.Errorf("refilled line class = %v, want hash", ln.Class)
	}
	// The eviction must decrement the class the line now holds.
	c.Invalidate(0x100)
	if c.ResidentLinesClass(Data) != 0 || c.ResidentLinesClass(Hash) != 0 {
		t.Errorf("after invalidate: data %d hash %d", c.ResidentLinesClass(Data), c.ResidentLinesClass(Hash))
	}
}

// TestWriteHitReclasses pins the same fix on the write-hit path.
func TestWriteHitReclasses(t *testing.T) {
	c := newTest(t, 1024, 2, 64, false)
	c.Fill(0x100, Hash, nil)
	if c.Write(0x100, Data) == nil {
		t.Fatal("write after fill missed")
	}
	if c.ResidentLinesClass(Data) != 1 || c.ResidentLinesClass(Hash) != 0 {
		t.Errorf("after data write hit: data %d hash %d", c.ResidentLinesClass(Data), c.ResidentLinesClass(Hash))
	}
	if ln := c.Peek(0x100); ln.Class != Data {
		t.Errorf("written line class = %v, want data", ln.Class)
	}
}

// TestClassAccountingInvariant is the enforced residency invariant:
// whatever randomized sequence of Fill/Write/Invalidate/refill runs, the
// per-class residency counters must stay non-negative, sum to the filled
// count, match a brute-force recount of the sets, and agree with an
// independent model of which class last touched each resident line. The
// model is maintained from the cache's own return values (evictions,
// invalidations, write hits), never from its internal counters, so a
// stale-class bug cannot hide. Seeds follow the fuzz-style seeding of the
// core/integrity property tests.
func TestClassAccountingInvariant(t *testing.T) {
	for _, seed := range []uint64{1, 7, 2026} {
		for _, dataBearing := range []bool{false, true} {
			rng := trace.NewRNG(seed)
			c := newTest(t, 8*64, 2, 64, dataBearing) // 4 sets x 2 ways: evictions early and often
			model := map[uint64]Class{}               // resident block addr -> class of last touch
			addrs := make([]uint64, 32)               // 4x capacity so refills and evictions mix
			for i := range addrs {
				addrs[i] = uint64(i * 64)
			}
			var block []byte
			if dataBearing {
				block = make([]byte, 64)
			}

			for op := 0; op < 4000; op++ {
				addr := addrs[rng.Intn(len(addrs))]
				class := Class(rng.Intn(int(numClasses)))
				switch rng.Intn(4) {
				case 0, 1: // Fill: fresh insert, refill of a resident line, or eviction
					ev := c.Fill(addr, class, block)
					if ev.Valid {
						if model[ev.Addr] != ev.Class {
							t.Fatalf("seed %d op %d: evicted %#x as %v, model says %v",
								seed, op, ev.Addr, ev.Class, model[ev.Addr])
						}
						delete(model, ev.Addr)
					}
					model[addr] = class
				case 2: // Write: reclasses on a hit, a pure miss otherwise
					if c.Write(addr, class) != nil {
						model[addr] = class
					}
				case 3:
					if ln := c.Invalidate(addr); ln.Valid {
						delete(model, addr)
					}
				}

				if got := c.ResidentLines(); got != len(model) {
					t.Fatalf("seed %d op %d: ResidentLines %d, model %d", seed, op, got, len(model))
				}
				sum := 0
				for cl := Class(0); cl < numClasses; cl++ {
					n := c.ResidentLinesClass(cl)
					if n < 0 {
						t.Fatalf("seed %d op %d: filledClass[%v] went negative (%d)", seed, op, cl, n)
					}
					sum += n
				}
				if sum != c.ResidentLines() {
					t.Fatalf("seed %d op %d: sum(filledClass) %d != filled %d", seed, op, sum, c.ResidentLines())
				}
				// Brute-force recount of the sets, checked against both the
				// counters and the model's view of every line's class.
				var recount [numClasses]int
				for _, ln := range c.lines {
					if !ln.Valid {
						continue
					}
					recount[ln.Class]++
					if want, ok := model[ln.Addr]; !ok {
						t.Fatalf("seed %d op %d: line %#x resident but not in model", seed, op, ln.Addr)
					} else if ln.Class != want {
						t.Fatalf("seed %d op %d: line %#x class %v, last touch was %v",
							seed, op, ln.Addr, ln.Class, want)
					}
				}
				for cl := Class(0); cl < numClasses; cl++ {
					if recount[cl] != c.ResidentLinesClass(cl) {
						t.Fatalf("seed %d op %d: filledClass[%v] = %d, recount %d",
							seed, op, cl, c.ResidentLinesClass(cl), recount[cl])
					}
				}
			}
		}
	}
}
