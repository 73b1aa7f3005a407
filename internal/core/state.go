package core

import (
	"fmt"
	"sync/atomic"

	"memverify/internal/integrity"
	"memverify/internal/mem"
)

// This file is the machine side of the persistence layer (internal/persist):
// a functional machine's complete authenticated state is its external-memory
// image — data chunks plus the interior chunks holding every stored
// hash/MAC record, including the scheme-i records whose stamp bits live in
// the record bytes — together with the secure on-chip root register.
// Everything else (caches, the pending-check window) is
// reconstructible or must be empty at a commit point anyway.

// Snapshot is one commit-point capture of a machine's protected state:
// the whole external-memory image of the hash-tree region
// ([0, Layout.Size())), or only the lines of it written since an earlier
// snapshot, and in both cases a copy of the secure root register.
type Snapshot struct {
	// Seq names this snapshot to the machine that took it. Passed back as
	// since, it asks for the changes made after this snapshot — and is
	// honoured only while this is still the machine's latest snapshot.
	Seq  uint64
	Root []byte
	// Image is the full image, nil when the snapshot is a delta.
	Image []byte
	// Runs and Lines are the delta: the maximal runs of 64-byte lines
	// written since snapshot since, ascending, and the bytes those lines
	// hold, run after run (the image's last line may be short). Applied in
	// place over the image of snapshot since, they give the image of this
	// one.
	Runs  []mem.LineRun
	Lines []byte
}

// snapshotSeq hands out snapshot sequence numbers. They are unique across
// the machines of a process, so one machine's number can never be taken
// for another's; none is ever 0, the "since nothing" argument.
var snapshotSeq atomic.Uint64

// SaveStateSince drains the machine to a commit point and captures its
// protected state. Flush writes back every dirty line first, so on
// return external memory is authoritative: every clean cached line
// matches it and the stored records cover exactly what is returned.
//
// The capture is a delta when since names the machine's latest snapshot
// and no more than maxLines lines were written after it, and the full
// image otherwise: since 0, a since some later SaveState, SaveStateSince
// or RestoreState has made stale, another machine's since, or a write set
// the caller has no use for as a delta. The choice is made from the count
// of dirty lines, before anything is copied. Every write to external
// memory counts, whoever made it — the engine, a restore, an adversary on
// the bus — so that a delta over its predecessor is always byte for byte
// what the full image would have been.
//
// It fails on a non-functional machine (there are no bytes to save), on
// the base scheme (no root to seal), under the timing-only hash unit (its
// records are vacuous stand-ins), and on a halted machine (tampered state
// must not be checkpointed as if it were committed).
func (m *Machine) SaveStateSince(since uint64, maxLines int) (Snapshot, error) {
	if err := m.persistable(); err != nil {
		return Snapshot{}, err
	}
	m.Flush()
	if m.halted {
		return Snapshot{}, fmt.Errorf("%w (%v)", ErrHalted, m.haltCause)
	}
	size := m.Layout.Size()
	snap := Snapshot{Root: append([]byte(nil), m.Sys.Root...)}
	if n := m.backing.DirtyLines(size); since != 0 && since == m.snapSeq && n <= maxLines {
		snap.Runs, snap.Lines = m.backing.AppendDirty(size, nil, make([]byte, 0, n*mem.LineSize))
	} else {
		snap.Image = make([]byte, size)
		m.backing.Read(0, snap.Image)
	}
	m.backing.ClearDirty()
	m.snapSeq = snapshotSeq.Add(1)
	snap.Seq = m.snapSeq
	return snap, nil
}

// SaveState is SaveStateSince since nothing: it returns the full image
// and the root.
func (m *Machine) SaveState() (img []byte, root []byte, err error) {
	snap, err := m.SaveStateSince(0, 0)
	return snap.Image, snap.Root, err
}

// Root returns a copy of the secure root register: the root hash, or the
// root chunk's MAC record in the i scheme. Call Flush (or SaveState)
// first if the root must cover all program writes issued so far.
func (m *Machine) Root() []byte {
	return append([]byte(nil), m.Sys.Root...)
}

// StateSize returns the size in bytes of the protected-state image
// SaveState and RestoreState exchange.
func (m *Machine) StateSize() uint64 { return m.Layout.Size() }

// RestoreState installs a previously saved protected-state image and root
// register, replacing whatever state the machine holds. The image bytes
// are written straight into external memory, every protected line is
// dropped from the caches without write-back (a stale dirty line must not
// resurface over the restored bytes), and the root register is loaded
// from root — the trusted anchor the restored tree is subsequently
// verified against.
//
// RestoreState does not verify anything itself: reads after it go through
// the ordinary verification walk, so a restored image that disagrees with
// root (tampering, or a rolled-back snapshot) is detected on consumption;
// VerifyAll forces that detection eagerly. Recovery does not come through
// here: internal/persist builds its machines from the saved state
// (NewMachineFromState) rather than restoring over a fresh one.
func (m *Machine) RestoreState(img []byte, root []byte) error {
	if err := m.installState(img, root); err != nil {
		return err
	}
	for ba := uint64(0); ba < m.Layout.Size(); ba += uint64(m.Cfg.L2Block) {
		m.L2.Invalidate(ba)
		if m.VC != nil {
			m.VC.Invalidate(ba)
		}
	}
	// No snapshot describes what memory holds now: the next one is full.
	m.snapSeq = 0
	// A restore is a reboot: the halt latch clears and detection starts
	// over against the restored state. Counters are left alone — callers
	// diff them around the post-restore verification pass.
	m.halted = false
	m.haltCause = nil
	return nil
}

// installState writes a saved image into external memory and loads the
// root register: all of RestoreState that a machine with empty caches
// (one under construction) needs.
func (m *Machine) installState(img, root []byte) error {
	if err := m.persistable(); err != nil {
		return err
	}
	if uint64(len(img)) != m.Layout.Size() {
		return fmt.Errorf("core: state image is %d bytes, protected region needs %d",
			len(img), m.Layout.Size())
	}
	if len(root) != m.Layout.HashSize {
		return fmt.Errorf("core: root is %d bytes, layout stores %d-byte records",
			len(root), m.Layout.HashSize)
	}
	m.backing.Write(0, img)
	m.Sys.Root = append(m.Sys.Root[:0], root...)
	return nil
}

// persistable checks the configuration constraints shared by SaveState
// and RestoreState.
func (m *Machine) persistable() error {
	if !m.Cfg.Functional {
		return fmt.Errorf("core: state persistence requires a functional machine")
	}
	if m.Cfg.Scheme == SchemeBase {
		return fmt.Errorf("core: the base scheme has no authenticated state to persist")
	}
	if m.Sys.HashMode == integrity.HashTiming {
		return fmt.Errorf("core: timing-only hash execution stores vacuous records; persistence requires hash mode full")
	}
	return nil
}
