package core

import (
	"fmt"

	"memverify/internal/integrity"
)

// This file is the machine side of the persistence layer (internal/persist):
// a functional machine's complete authenticated state is its external-memory
// image — data chunks plus the interior chunks holding every stored
// hash/MAC record, including the scheme-i records whose stamp bits live in
// the record bytes — together with the secure on-chip root register.
// Everything else (caches, memo tables, the pending-check window) is
// reconstructible or must be empty at a commit point anyway.

// SaveState drains the machine to a commit point and returns a snapshot of
// its protected state: the full external-memory image of the hash-tree
// region ([0, Layout.Size())) and a copy of the secure root register. It
// is an implicit barrier — Flush writes back every dirty line and resolves
// every outstanding speculative check — so on return external memory is
// authoritative: every clean cached line matches it and the stored records
// cover exactly the returned image.
//
// SaveState fails on a non-functional machine (there are no bytes to
// save), on the base scheme (no root to seal), under the timing-only hash
// unit (its records are vacuous stand-ins), and on a halted machine
// (tampered state must not be checkpointed as if it were committed).
func (m *Machine) SaveState() (img []byte, root []byte, err error) {
	if err := m.persistable(); err != nil {
		return nil, nil, err
	}
	m.Flush()
	if m.halted {
		return nil, nil, fmt.Errorf("%w (%v)", ErrHalted, m.haltCause)
	}
	img = make([]byte, m.Layout.Size())
	m.backing.Read(0, img)
	return img, append([]byte(nil), m.Sys.Root...), nil
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
// resurface over the restored bytes), the memo table forgets any digests
// of the displaced image, and the root register is loaded from root — the
// trusted anchor the restored tree is subsequently verified against.
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
	m.Sys.Exec.InvalidateMemo()
	// A restore is a reboot: the halt latch clears and detection starts
	// over against the restored state. Counters are left alone — callers
	// diff them around the post-restore verification pass.
	m.halted = false
	m.haltCause = nil
	return nil
}

// installState writes a saved image into external memory and loads the
// root register: all of RestoreState that a machine with empty caches and
// an empty memo table (one under construction) needs.
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
	if m.Sys.Exec.Mode() == integrity.HashTiming {
		return fmt.Errorf("core: timing-only hash execution stores vacuous records; persistence requires hash mode full or memo")
	}
	return nil
}
