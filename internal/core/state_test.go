package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"memverify/internal/mem"
)

// applyRuns folds a delta snapshot into img and releases its view.
func applyRuns(img []byte, s Snapshot) {
	defer s.View.Release()
	lines := viewBytes(s.View.Lines)
	for _, r := range s.View.AppendRuns(nil) {
		n := copy(img[uint64(r.Line)*mem.LineSize:], lines[:min(int(r.Count)*mem.LineSize, len(lines))])
		lines = lines[n:]
	}
}

// viewBytes returns what one of a view's byte streams (Image, Lines)
// yields, concatenated.
func viewBytes(stream func(func([]byte) error) error) []byte {
	var b []byte
	stream(func(p []byte) error { b = append(b, p...); return nil })
	return b
}

// fullImage returns the image of a full snapshot and releases its view,
// nil when the snapshot is a delta.
func fullImage(s Snapshot) []byte {
	defer s.View.Release()
	if s.View.Delta() {
		return nil
	}
	return viewBytes(s.View.Image)
}

// TestSaveStateSince holds the snapshot routine to its contract: a delta
// over the snapshot it was taken since is byte for byte the full image,
// whoever wrote to memory in between, and a since the machine no longer
// recognises as its latest — stale, foreign, zero, or invalidated by a
// restore — yields the full image. The i scheme is not persisted: its leg
// checks that every state routine refuses it.
func TestSaveStateSince(t *testing.T) {
	for _, scheme := range []Scheme{SchemeNaive, SchemeCached, SchemeMulti, SchemeIncr} {
		t.Run(string(scheme), func(t *testing.T) {
			cfg := smallCfg(scheme)
			cfg.ViolationPolicy = "record"
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if scheme == SchemeIncr {
				_, errSave := m.SaveStateSince(0, 0)
				errRestore := m.RestoreState(make([]byte, m.Layout.Size()), m.Root())
				_, errBuild := NewMachineFromState(cfg, make([]byte, m.Layout.Size()), m.Root())
				_, _, errExtent := StateExtent(cfg)
				for _, err := range []error{errSave, errRestore, errBuild, errExtent} {
					if err == nil || !strings.Contains(err.Error(), "i scheme is not persisted") {
						t.Fatalf("state routine on an i machine: %v, want the refusal", err)
					}
				}
				return
			}
			other, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			size := int(m.StateSize())
			truth := func() []byte {
				img := make([]byte, size)
				m.backing.Read(extentStart(m.Layout), img)
				return img
			}
			rng := rand.New(rand.NewSource(3))
			store := func(n int) {
				buf := make([]byte, 100)
				for i := 0; i < n; i++ {
					rng.Read(buf)
					if err := m.StoreBytes(rng.Uint64()%(m.ProgSpan()-100), buf); err != nil {
						t.Fatal(err)
					}
				}
			}

			store(50)
			first, err := m.SaveStateSince(0, size)
			if err != nil {
				t.Fatal(err)
			}
			firstImage := fullImage(first)
			if firstImage == nil || first.Seq == 0 || !bytes.Equal(firstImage, truth()) {
				t.Fatalf("since nothing: want the full image and a sequence number")
			}
			shadow := bytes.Clone(firstImage)

			// Deltas chain: each folds into the last image to give this one,
			// an adversary's write between them included.
			last := first.Seq
			for round := 0; round < 4; round++ {
				store(20)
				if round == 2 {
					m.Flush()
					m.Adversary().Corrupt(m.ProgAddr(12345), 0x80)
				}
				d, err := m.SaveStateSince(last, size)
				if err != nil {
					t.Fatal(err)
				}
				if runs := d.View.AppendRuns(nil); !d.View.Delta() || len(runs) == 0 || d.Seq == last {
					t.Fatalf("round %d: want a delta under a new sequence number, got delta=%v runs=%d", round, d.View.Delta(), len(runs))
				}
				applyRuns(shadow, d)
				if !bytes.Equal(shadow, truth()) || !bytes.Equal(d.Root, m.Root()) {
					t.Fatalf("round %d: delta folded over its predecessor is not the image", round)
				}
				if round == 2 {
					m.Adversary().Corrupt(m.ProgAddr(12345), 0x80)
				}
				last = d.Seq
			}

			// An idle epoch is an empty delta, not a full image.
			idle, err := m.SaveStateSince(last, 0)
			if err != nil || !idle.View.Delta() || len(idle.View.AppendRuns(nil)) != 0 || idle.View.LineBytes() != 0 {
				t.Fatalf("idle epoch: %v, want an empty delta", err)
			}
			idle.View.Release()
			last = idle.Seq

			// More dirty lines than the caller wants as a delta: full image.
			store(20)
			if s, _ := m.SaveStateSince(last, 3); fullImage(s) == nil {
				t.Fatal("a write set over maxLines came back as a delta")
			} else {
				last = s.Seq
			}

			// Stale (an interleaved SaveState), foreign and restored sinces.
			store(5)
			if _, _, err := m.SaveState(); err != nil {
				t.Fatal(err)
			}
			store(5)
			if s, _ := m.SaveStateSince(last, size); !bytes.Equal(fullImage(s), truth()) {
				t.Fatal("a since made stale by SaveState came back as a delta")
			}
			foreign, err := other.SaveStateSince(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			foreign.View.Release()
			if s, _ := m.SaveStateSince(foreign.Seq, size); fullImage(s) == nil {
				t.Fatal("another machine's since came back as a delta")
			} else {
				last = s.Seq
			}
			if err := m.RestoreState(firstImage, first.Root); err != nil {
				t.Fatal(err)
			}
			if s, _ := m.SaveStateSince(last, size); !bytes.Equal(fullImage(s), firstImage) {
				t.Fatal("a since from before RestoreState came back as a delta")
			}
		})
	}
}

// TestStateOwnership pins who owns an image handed to a machine:
// RestoreState copies it, so the caller's buffer is untouched by what the
// machine does after; NewMachineFromState adopts it as the machine's
// external memory — the interior it rebuilds in front of the extent
// included — so the machine's flushed state lands in that buffer.
func TestStateOwnership(t *testing.T) {
	cfg := smallCfg(SchemeCached)
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.StoreBytes(0, bytes.Repeat([]byte{7}, 300)); err != nil {
		t.Fatal(err)
	}
	img, root, err := m.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	kept, saved := bytes.Clone(img), memImage(m)
	storeAll := func(m *Machine) {
		for off := uint64(0); off < m.ProgSpan(); off += 4099 {
			if err := m.StoreBytes(off, []byte{1, 2, 3}); err != nil {
				t.Fatal(err)
			}
		}
		m.Flush()
	}

	if err := m.RestoreState(img, root); err != nil {
		t.Fatal(err)
	}
	storeAll(m)
	if !bytes.Equal(img, kept) {
		t.Fatal("stores after RestoreState changed the caller's image")
	}

	whole := make([]byte, m.Layout.Size())
	copy(whole[extentStart(m.Layout):], img)
	adopter, err := NewMachineFromState(cfg, whole, root)
	if err != nil {
		t.Fatal(err)
	}
	if adopter.Sys.Stat.Violations != 0 || !bytes.Equal(whole, saved) {
		t.Fatal("NewMachineFromState did not rebuild the tree the state was saved under")
	}
	storeAll(adopter)
	if bytes.Equal(whole[extentStart(m.Layout):], kept) || !bytes.Equal(whole, memImage(adopter)) {
		t.Fatal("NewMachineFromState's image is not the machine's memory")
	}
}

// memImage returns m's whole protected region as its external memory
// holds it, after a flush.
func memImage(m *Machine) []byte {
	m.Flush()
	img := make([]byte, m.Layout.Size())
	m.backing.Read(0, img)
	return img
}

// TestTimingRunWritesNoMemory runs a timing-only machine over a 4 GiB
// protected region: nothing ever writes its external memory, so not one
// page — and no page table — is allocated.
func TestTimingRunWritesNoMemory(t *testing.T) {
	for _, scheme := range []Scheme{SchemeBase, SchemeNaive, SchemeCached, SchemeIncr} {
		cfg := smallCfg(scheme)
		cfg.Functional = false
		cfg.ProtectedBytes = 4 << 30
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.Run()
		if n := m.backing.PageCount(); n != 0 {
			t.Fatalf("%s: a timing-only run materialized %d pages", scheme, n)
		}
	}
}
