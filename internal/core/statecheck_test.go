package core

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
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
		// first data chunk's record.
		{"two-forgeries", flipped(flipped(img, l.Size()-1), record), root, false, false},
	}
}

// atLeastTwoProcs runs the rest of the test with GOMAXPROCS at least 2,
// so that the tree rebuild's workers run concurrently under -race.
func atLeastTwoProcs(t *testing.T) {
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestVerifyImageAgreesWithVerifyAll holds the check a machine built
// from a state (NewMachineFromState) makes to the engine sweep. It is
// named for the whole-image check Machine.VerifyImage once made, which
// the build-time check replaced. On each memory state, a machine built
// from it and a machine whose memory and root register are set to it and
// swept with VerifyAll agree on detected versus clean, for every
// persisted scheme and violation policy — except where the forged bytes
// lie below the data region. Those are not part of the state: the built
// machine rebuilds them, and its tree passes. The built machine's one
// violation is at chunk 0, and a detection halts a halt-policy machine.
//
// i is not persisted: NewMachineFromState refuses it, and VerifyAll on a
// machine whose memory holds the state — its stored tree included —
// still detects every forgery.
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
						if scheme == SchemeIncr {
							if _, err := NewMachineFromState(pcfg, bytes.Clone(tc.img), tc.root); err == nil || !strings.Contains(err.Error(), "i scheme is not persisted") {
								t.Fatalf("NewMachineFromState(i): %v, want the refusal", err)
							}
							// A fresh machine, settled and emptied of
							// cached lines, whose memory and root register
							// then take the case's.
							sweep, err := NewMachine(pcfg)
							if err != nil {
								t.Fatal(err)
							}
							sweep.Flush()
							sweep.dropProtected()
							sweep.backing.Write(0, tc.img)
							sweep.Sys.Root = bytes.Clone(tc.root)
							if err := sweep.VerifyAll(); (err == nil) != tc.clean {
								t.Fatalf("VerifyAll: %v, want clean=%v", err, tc.clean)
							}
							if sweep.Halted() != (policy == "halt" && !tc.clean) {
								t.Fatalf("VerifyAll: halted %v under policy %s", sweep.Halted(), policy)
							}
							return
						}
						built, err := NewMachineFromState(pcfg, bytes.Clone(tc.img), tc.root)
						if err != nil {
							t.Fatal(err)
						}
						if n, want := built.Sys.Stat.Violations, !tc.clean && !tc.interior; (n == 1) != want || n > 1 {
							t.Fatalf("built from the state: %d violations, want detection %v", n, want)
						}
						if built.Sys.Stat.Violations > 0 && built.Sys.First.Chunk != 0 {
							t.Fatalf("built from the state: violation at chunk %d, want the root's, chunk 0", built.Sys.First.Chunk)
						}
						if built.Halted() != (policy == "halt" && built.Sys.Stat.Violations > 0) {
							t.Fatalf("built from the state: halted %v under policy %s", built.Halted(), policy)
						}
						// A machine built from the clean state, whose memory
						// and root register then take the case's.
						sweep, err := NewMachineFromState(pcfg, bytes.Clone(clean.img), clean.root)
						if err != nil {
							t.Fatal(err)
						}
						sweep.backing.Write(0, tc.img)
						sweep.Sys.Root = bytes.Clone(tc.root)
						if err := sweep.VerifyAll(); (err == nil) != tc.clean {
							t.Fatalf("VerifyAll: %v, want clean=%v", err, tc.clean)
						}
						if sweep.Halted() != (policy == "halt" && !tc.clean) {
							t.Fatalf("VerifyAll: halted %v under policy %s", sweep.Halted(), policy)
						}
					})
				}
			}
		})
	}
}
