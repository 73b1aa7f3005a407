package main

import (
	"fmt"
	"testing"
)

var workloads = []string{"mixed", "seq", "zipf", "appendlog"}

// TestOpGenStaysInStripe drives every workload across seeds, stripe sizes
// and operation lengths: each operation is at least one byte, at most
// -max-len, and ends inside the worker's stripe.
func TestOpGenStaysInStripe(t *testing.T) {
	for _, kind := range workloads {
		for _, stripe := range []uint64{257, 4096, 100_003, 1 << 20} {
			for _, maxLen := range []int{1, 64, 256} {
				for _, seed := range []int64{1, 7, 1<<8 | 3} {
					for _, writeFrac := range []float64{0, 0.5, 1} {
						name := fmt.Sprintf("%s/stripe=%d/max-len=%d/seed=%d/write-frac=%g", kind, stripe, maxLen, seed, writeFrac)
						g, err := newOpGen(kind, seed, stripe, maxLen, writeFrac)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						for i := 0; i < 5000; i++ {
							off, length, _ := g.next()
							if length < 1 || length > maxLen || off+uint64(length) > stripe {
								t.Fatalf("%s: op %d is [%d, %d+%d), stripe %d", name, i, off, off, length, stripe)
							}
						}
					}
				}
			}
		}
	}
}

// TestOpGenDeterministic: one seed yields one stream, so a run can be
// repeated exactly; a different seed yields a different one.
func TestOpGenDeterministic(t *testing.T) {
	type op struct {
		off    uint64
		length int
		write  bool
	}
	stream := func(kind string, seed int64) []op {
		g, err := newOpGen(kind, seed, 1<<16, 256, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]op, 2000)
		for i := range out {
			out[i].off, out[i].length, out[i].write = g.next()
		}
		return out
	}
	for _, kind := range workloads {
		a, b, c := stream(kind, 42), stream(kind, 42), stream(kind, 43)
		same := func(x, y []op) bool {
			for i := range x {
				if x[i] != y[i] {
					return false
				}
			}
			return true
		}
		if !same(a, b) {
			t.Errorf("%s: seed 42 produced two different streams", kind)
		}
		if same(a, c) {
			t.Errorf("%s: seeds 42 and 43 produced the same stream", kind)
		}
	}
}

func TestOpGenRejectsUnknownAndTinyZipf(t *testing.T) {
	if _, err := newOpGen("random", 1, 4096, 64, 0.5); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := newOpGen("zipf", 1, 100, 64, 0.5); err == nil {
		t.Error("zipf over a stripe of one block accepted")
	}
}
