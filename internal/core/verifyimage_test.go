package core

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"memverify/internal/cache"
	"memverify/internal/integrity"
)

// imageCase is one memory state: the whole image and root a machine's
// memory and root register hold, whether the state is the one the root
// seals, and whether it differs from that one only below the data region
// — in bytes naive, c and m rebuild rather than persist.
type imageCase struct {
	name      string
	img, root []byte
	clean     bool
	interior  bool
}

// imageCases builds the memory states TestVerifyImageAgreesWithVerifyAll
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
	oldImg := memImage(m)
	store(101)
	img, root := memImage(m), m.Root()
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
		{"clean", img, root, true, false},
		{"data-byte", flipped(img, m.ProgAddr(4099*3+7)), root, false, false},
		{"code-byte", flipped(img, l.DataStart()+10), root, false, false},
		{"interior-record", flipped(img, record), root, false, true},
		{"unused-tail-slot", flipped(img, tail), root, false, true},
		{"stale-image", oldImg, root, false, false},
		{"wrong-root", img, flipped(root, 0), false, false},
		// Two forgeries far apart, in the last data chunk and in the
		// first data chunk's record, so that the check's workers meet
		// them in different runs of chunks: the data byte's chunk is the
		// higher-numbered, so it is the one reported.
		{"two-forgeries", flipped(flipped(img, l.Size()-1), record), root, false, false},
	}
}

// atLeastTwoProcs runs the rest of the test with GOMAXPROCS at least 2,
// so that the image check's workers run concurrently under -race.
func atLeastTwoProcs(t *testing.T) {
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
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
// the engine sweep: on each memory state, the two — each on its own
// machine whose memory holds that state — agree on detected versus clean,
// for every tree scheme and violation policy. A detection halts a
// halt-policy machine, and a clean check charges nothing anywhere. The
// check runs on every core; the one violation it records is at the chunk
// the serial walk, forced by an interposed adversary, reports.
//
// A machine built from the state (NewMachineFromState) checks it as it
// is built, and agrees too — except where naive, c and m rebuild the
// forged bytes: a forgery below the data region is not part of their
// state, and their rebuilt tree passes. Their one violation is at chunk 0.
func TestVerifyImageAgreesWithVerifyAll(t *testing.T) {
	atLeastTwoProcs(t)
	for _, scheme := range []Scheme{SchemeNaive, SchemeCached, SchemeMulti, SchemeIncr} {
		t.Run(string(scheme), func(t *testing.T) {
			cfg := smallCfg(scheme)
			cfg.ProtectedBytes = 1<<20 - 4096
			cases := imageCases(t, cfg)
			clean := cases[0]
			for _, tc := range cases {
				for _, policy := range []string{"record", "halt"} {
					t.Run(tc.name+"/"+policy, func(t *testing.T) {
						pcfg := cfg
						pcfg.ViolationPolicy = policy
						build := func() *Machine {
							// A machine built from the clean state, whose
							// memory and root register then take the case's.
							m, err := NewMachineFromState(pcfg, bytes.Clone(clean.img), clean.root)
							if err != nil {
								t.Fatal(err)
							}
							m.backing.Write(0, tc.img)
							m.Sys.Root = bytes.Clone(tc.root)
							return m
						}
						built, err := NewMachineFromState(pcfg, bytes.Clone(tc.img), tc.root)
						if err != nil {
							t.Fatal(err)
						}
						derived := scheme != SchemeIncr
						if n, want := built.Sys.Stat.Violations, !tc.clean && !(derived && tc.interior); (n == 1) != want || n > 1 {
							t.Fatalf("built from the state: %d violations, want detection %v", n, want)
						}
						if built.Sys.Stat.Violations > 0 && derived && built.Sys.First.Chunk != 0 {
							t.Fatalf("built from the state: violation at chunk %d, want the root's, chunk 0", built.Sys.First.Chunk)
						}
						if built.Halted() != (policy == "halt" && built.Sys.Stat.Violations > 0) {
							t.Fatalf("built from the state: halted %v under policy %s", built.Halted(), policy)
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
						serial := build()
						serial.Adversary()
						if err := serial.VerifyImage(); err == nil {
							t.Fatal("the serial walk passed a forged image")
						}
						if got, want := image.Sys.First.Chunk, serial.Sys.First.Chunk; got != want {
							t.Fatalf("violation at chunk %d, the serial walk reports %d", got, want)
						}
						if want := image.Layout.TotalChunks - 1; tc.name == "two-forgeries" && image.Sys.First.Chunk != want {
							t.Fatalf("violation at chunk %d, want the forged data chunk %d", image.Sys.First.Chunk, want)
						}
						if policy == "halt" {
							if !image.Halted() || !sweep.Halted() {
								t.Fatalf("halted: image check %v, sweep %v; want both", image.Halted(), sweep.Halted())
							}
							if err := image.VerifyImage(); !errors.Is(err, ErrHalted) {
								t.Fatalf("check of a halted machine: %v, want ErrHalted", err)
							}
						}
					})
				}
			}
		})
	}
}

// TestVerifyImageThroughAdversary pins the check of an image read through
// an interposed adversary: its reads run in walk order, so an active
// Replay serves the check what it serves a demand read. Here it replays a
// forged data chunk over memory that holds the genuine one: the check
// sees the forgery and reports it at that chunk — once, halting a
// halt-policy machine — though memory itself is clean.
func TestVerifyImageThroughAdversary(t *testing.T) {
	atLeastTwoProcs(t)
	for _, scheme := range []Scheme{SchemeNaive, SchemeCached, SchemeMulti, SchemeIncr} {
		cfg := smallCfg(scheme)
		cfg.ProtectedBytes = 1<<20 - 4096
		clean := imageCases(t, cfg)[0]
		for _, policy := range []string{"record", "halt"} {
			t.Run(string(scheme)+"/"+policy, func(t *testing.T) {
				pcfg := cfg
				pcfg.ViolationPolicy = policy
				m, err := NewMachineFromState(pcfg, bytes.Clone(clean.img), clean.root)
				if err != nil {
					t.Fatal(err)
				}
				adv := m.Adversary()
				addr := m.ProgAddr(4099*3 + 7)
				chunk := m.Layout.ChunkOf(addr)
				adv.Corrupt(addr, 0x40)
				h := adv.Snapshot(m.Layout.ChunkAddr(chunk), uint64(m.Layout.ChunkSize))
				adv.Corrupt(addr, 0x40) // memory holds the genuine chunk again
				adv.Replay(h)
				var v *integrity.ViolationError
				if err := m.VerifyImage(); !errors.As(err, &v) || v.Chunk != chunk {
					t.Fatalf("VerifyImage: %v, want a violation at chunk %d", err, chunk)
				}
				if n := m.Sys.Stat.Violations; n != 1 {
					t.Fatalf("%d violations recorded, want 1", n)
				}
				if m.Halted() != (policy == "halt") {
					t.Fatalf("halted %v under policy %s", m.Halted(), policy)
				}
				adv.StopReplay(h)
				if policy != "halt" {
					if err := m.VerifyImage(); err != nil {
						t.Fatalf("with the replay stopped: %v", err)
					}
				}
			})
		}
	}
}
