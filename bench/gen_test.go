package main

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// record renders n ops of a worker's stream, payload bytes included.
func record(wl *workload, seed uint64, worker, n int, stripe uint64) []byte {
	g := newGen(wl, seed, worker, phaseMeasure, stripe)
	pay := rng{s: streamSeed(seed, worker+2, phaseMeasure)}
	var out []byte
	buf := make([]byte, maxSlot)
	for i := 0; i < n; i++ {
		o := g.next()
		out = binary.LittleEndian.AppendUint64(out, o.off)
		out = binary.LittleEndian.AppendUint32(out, uint32(o.n))
		if o.write {
			pay.fill(buf[:o.n])
			out = append(out, buf[:o.n]...)
		}
	}
	return out
}

func TestStreamsRepeatForEqualSeeds(t *testing.T) {
	const stripe = 1<<20 - 4096
	for _, wl := range workloads {
		a, b := record(wl, 7, 0, 5000, stripe), record(wl, 7, 0, 5000, stripe)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two streams of seed 7 differ", wl.name)
		}
		if bytes.Equal(a, record(wl, 8, 0, 5000, stripe)) {
			t.Errorf("%s: streams of seeds 7 and 8 are equal", wl.name)
		}
		if bytes.Equal(a, record(wl, 7, 1, 5000, stripe)) {
			t.Errorf("%s: workers 0 and 1 of seed 7 have equal streams", wl.name)
		}
	}
}

// Every simulated counter is deterministic only because a worker's ops stay
// inside its own stripe, so that each shard sees one worker's ops in order.
func TestOpsStayInsideTheStripe(t *testing.T) {
	const stripe = 1<<20 - 4096
	for _, wl := range workloads {
		for worker := 0; worker < 2; worker++ {
			g := newGen(wl, 3, worker, phaseMeasure, stripe)
			base := uint64(worker) * stripe
			for i := 0; i < 200000; i++ {
				o := g.next()
				if o.n < 1 || o.n > maxSlot {
					t.Fatalf("%s: op %d has length %d", wl.name, i, o.n)
				}
				lo, hi := base+o.off, base+o.off+uint64(o.n)
				if lo < base || hi > base+stripe {
					t.Fatalf("%s: worker %d op %d spans [%d,%d), outside its stripe [%d,%d)", wl.name, worker, i, lo, hi, base, base+stripe)
				}
				if wl.shape == shapeLog && o.write && (o.off%logRecordUnit != 0 || o.n%logRecordUnit != 0) {
					t.Fatalf("%s: log record at %d of %d bytes is not %d-aligned", wl.name, o.off, o.n, logRecordUnit)
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
