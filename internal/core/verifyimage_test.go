package core

import (
	"bytes"
	"errors"
	"testing"

	"memverify/internal/cache"
	"memverify/internal/integrity"
)

// imageCase is one restored state: the image and root a recovered machine
// is built from, and whether the state is the one the root seals.
type imageCase struct {
	name      string
	img, root []byte
	clean     bool
}

// imageCases builds the restored states TestVerifyImageAgreesWithVerifyAll
// runs: a clean image, single-byte forgeries in data, code and records,
// an older image under a newer root, and a wrong root.
func imageCases(t *testing.T, cfg Config) []imageCase {
	t.Helper()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := func(seed byte) {
		for i := uint64(0); i < 40; i++ {
			if err := m.StoreBytes(i*4099, bytes.Repeat([]byte{seed + byte(i)}, 100)); err != nil {
				t.Fatal(err)
			}
		}
	}
	store(1)
	oldImg, _, err := m.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	store(101)
	img, root, err := m.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	l := m.Layout
	flipped := func(b []byte, at uint64) []byte {
		b = bytes.Clone(b)
		b[at] ^= 0x40
		return b
	}
	record, _ := l.HashAddr(l.InteriorChunks) // the first data chunk's record
	// The slot a chunk numbered TotalChunks would have: an unused tail
	// slot when it falls inside the last interior chunk.
	tail, _ := l.HashAddr(l.TotalChunks)
	if l.ChunkOf(tail) >= l.InteriorChunks {
		t.Fatalf("layout of %d chunks fills its last interior chunk; pick a size that leaves a tail slot", l.TotalChunks)
	}
	return []imageCase{
		{"clean", img, root, true},
		{"data-byte", flipped(img, m.ProgAddr(4099*3+7)), root, false},
		{"code-byte", flipped(img, l.DataStart()+10), root, false},
		{"interior-record", flipped(img, record), root, false},
		{"unused-tail-slot", flipped(img, tail), root, false},
		{"stale-image", oldImg, root, false},
		{"wrong-root", img, flipped(root, 0), false},
	}
}

// counters is everything a check could charge: engine statistics, cache,
// bus and DRAM counters, and the machine's clock.
type counters struct {
	sys                                  integrity.Stats
	l2                                   cache.Stats
	busBytes, busBusy, reads, writes, at uint64
}

func countersOf(m *Machine) counters {
	return counters{m.Sys.Stat, m.L2.Stat, m.Bus.TotalBytes(), m.Bus.BusyCycles(), m.DRAM.Reads(), m.DRAM.Writes(), m.Now()}
}

// TestVerifyImageAgreesWithVerifyAll holds the one-pass image check to
// the engine sweep it replaces in recovery: on each restored state, the
// two — each on its own machine built from that state — agree on
// detected versus clean, for every tree scheme and violation policy. A
// detection halts a halt-policy machine, a retry-policy detection is a
// persistent retry, and a clean check charges nothing anywhere.
func TestVerifyImageAgreesWithVerifyAll(t *testing.T) {
	for _, scheme := range []Scheme{SchemeNaive, SchemeCached, SchemeMulti, SchemeIncr} {
		t.Run(string(scheme), func(t *testing.T) {
			cfg := smallCfg(scheme)
			cfg.ProtectedBytes = 1<<20 - 4096
			for _, tc := range imageCases(t, cfg) {
				for _, policy := range []string{"record", "halt", "retry"} {
					t.Run(tc.name+"/"+policy, func(t *testing.T) {
						pcfg := cfg
						pcfg.ViolationPolicy = policy
						build := func() *Machine {
							m, err := NewMachineFromState(pcfg, tc.img, tc.root)
							if err != nil {
								t.Fatal(err)
							}
							return m
						}
						sweep, image := build(), build()
						sweepErr := sweep.VerifyAll()
						before := countersOf(image)
						imageErr := image.VerifyImage()
						if (sweepErr == nil) != (imageErr == nil) {
							t.Fatalf("VerifyAll: %v; VerifyImage: %v", sweepErr, imageErr)
						}
						if (imageErr == nil) != tc.clean {
							t.Fatalf("VerifyImage: %v, want clean=%v", imageErr, tc.clean)
						}
						if tc.clean {
							if after := countersOf(image); after != before {
								t.Fatalf("a clean check moved counters: %+v -> %+v", before, after)
							}
							return
						}
						if image.Sys.Stat.Violations != 1 {
							t.Fatalf("%d violations recorded, want the first only", image.Sys.Stat.Violations)
						}
						switch policy {
						case "halt":
							if !image.Halted() || !sweep.Halted() {
								t.Fatalf("halted: image check %v, sweep %v; want both", image.Halted(), sweep.Halted())
							}
							if err := image.VerifyImage(); !errors.Is(err, ErrHalted) {
								t.Fatalf("check of a halted machine: %v, want ErrHalted", err)
							}
						case "retry":
							if s := image.Sys.Stat; s.Retries != 1 || s.RetriesPersistent != 1 {
								t.Fatalf("retries %d (persistent %d), want one persistent", s.Retries, s.RetriesPersistent)
							}
						}
					})
				}
			}
		})
	}
}
