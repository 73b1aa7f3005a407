package core

import (
	"fmt"
	"sync/atomic"

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
// a frozen view of the whole external-memory image of the hash-tree
// region ([0, Layout.Size())), or of only the lines of it written since
// an earlier snapshot, and in both cases a copy of the secure root
// register.
type Snapshot struct {
	// Seq names this snapshot to the machine that took it. Passed back as
	// since, it asks for the changes made after this snapshot — and is
	// honoured only while this is still the machine's latest snapshot.
	Seq  uint64
	Root []byte
	// View holds the captured bytes in place until it is released. A full
	// view's Image is the image; a delta view's runs (AppendRuns) are the
	// maximal runs of 64-byte lines written since snapshot since,
	// ascending, and its Lines the bytes those lines hold, run after run
	// (the image's last line may be short). Applied in place over the
	// image of snapshot since, they give the image of this one. Whoever
	// takes the snapshot releases the view; until then, the machine's
	// first write to each page the view holds copies that page.
	View *mem.Frozen
}

// snapshotSeq hands out snapshot sequence numbers. They are unique across
// the machines of a process, so one machine's number can never be taken
// for another's; none is ever 0, the "since nothing" argument.
var snapshotSeq atomic.Uint64

// SaveStateSince drains the machine to a commit point and captures its
// protected state. Flush writes back every dirty line first, so on
// return external memory is authoritative: every clean cached line
// matches it and the stored records cover exactly what is captured.
//
// The capture is a delta when since names the machine's latest snapshot
// and no more than maxLines lines were written after it, and the full
// image otherwise: since 0, a since some later SaveState, SaveStateSince
// or RestoreState has made stale, another machine's since, or a write set
// the caller has no use for as a delta. The choice is made from the count
// of dirty lines, before anything is captured. Every write to external
// memory counts, whoever made it — the engine, a restore, an adversary on
// the bus — so that a delta over its predecessor is always byte for byte
// what the full image would have been.
//
// It fails on a non-functional machine (there are no bytes to save), on
// the base scheme (no root to seal) and on a halted machine (tampered
// state must not be checkpointed as if it were committed).
func (m *Machine) SaveStateSince(since uint64, maxLines int) (Snapshot, error) {
	if err := m.persistable(); err != nil {
		return Snapshot{}, err
	}
	m.Flush()
	if m.halted {
		return Snapshot{}, fmt.Errorf("%w (%v)", ErrHalted, m.haltCause)
	}
	size := m.Layout.Size()
	delta := since != 0 && since == m.snapSeq && m.backing.DirtyLines(size) <= maxLines
	m.snapSeq = snapshotSeq.Add(1)
	return Snapshot{Seq: m.snapSeq, Root: append([]byte(nil), m.Sys.Root...), View: m.backing.Freeze(size, delta)}, nil
}

// SaveState is SaveStateSince since nothing, materialized: it returns a
// copy of the full image and the root.
func (m *Machine) SaveState() (img []byte, root []byte, err error) {
	snap, err := m.SaveStateSince(0, 0)
	if err != nil {
		return nil, nil, err
	}
	defer snap.View.Release()
	img = make([]byte, 0, m.Layout.Size())
	snap.View.Image(func(p []byte) error { img = append(img, p...); return nil })
	return img, snap.Root, nil
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
// are copied straight into external memory (img stays the caller's),
// every protected line is dropped from the caches without write-back (a
// stale dirty line must not resurface over the restored bytes), and the
// root register is loaded from root — the trusted anchor the restored
// tree is subsequently verified against.
//
// RestoreState does not verify anything itself: reads after it go through
// the ordinary verification walk, so a restored image that disagrees with
// root (tampering, or a rolled-back snapshot) is detected on consumption;
// VerifyImage (or VerifyAll) forces that detection eagerly. Recovery does not come through
// here: internal/persist builds its machines from the saved state
// (NewMachineFromState) rather than restoring over a fresh one.
func (m *Machine) RestoreState(img []byte, root []byte) error {
	if err := m.installState(img, root, false); err != nil {
		return err
	}
	m.dropProtected()
	// No snapshot describes what memory holds now: the next one is full.
	m.snapSeq = 0
	// A restore is a reboot: the halt latch clears and detection starts
	// over against the restored state. Counters are left alone — callers
	// diff them around the post-restore verification pass.
	m.halted = false
	m.haltCause = nil
	return nil
}

// installState puts a saved image into external memory — copied, or
// adopted as that memory when adopt is set — and loads the root register:
// all of RestoreState that a machine with empty caches (one under
// construction) needs.
func (m *Machine) installState(img, root []byte, adopt bool) error {
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
	if adopt {
		m.backing.Adopt(img)
	} else {
		m.backing.Write(0, img)
	}
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
	return nil
}
