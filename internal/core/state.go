package core

import (
	"fmt"
	"sync/atomic"

	"memverify/internal/htree"
	"memverify/internal/mem"
)

// This file is the machine side of the persistence layer (internal/persist):
// a functional machine's authenticated state is its external-memory image
// — data chunks and the interior chunks holding every stored hash record —
// together with the secure on-chip root register. Every persisted scheme
// (naive, c and m) stores the hash of each chunk's image
// (integrity.System.hashRecord), so the interior is a function of the
// data: a checkpoint keeps the data region alone, its persisted extent,
// and a machine built from it rebuilds the tree
// (integrity.System.DeriveTree, the §5.7.2 computation) and checks the
// root it gets against the saved one. Everything else (caches, the
// pending-check window) is reconstructible or must be empty at a commit
// point anyway. The i scheme is not persisted: its XOR-MAC key is
// compiled into the program, so it is public, and a record an attacker
// who holds the disk could recompute would protect nothing (DESIGN §5.1).

// StateExtent returns the persisted extent of a machine cfg builds: the
// byte range [start, end) of its protected region that SaveStateSince
// captures and RestoreState takes back — the data region, its start
// rounded down to a mem.LineSize line. It fails on an invalid cfg and on
// a scheme that is not persisted (base, i).
func StateExtent(cfg Config) (start, end uint64, err error) {
	if err := cfg.Validate(); err != nil {
		return 0, 0, err
	}
	if err := persistableScheme(cfg.Scheme); err != nil {
		return 0, 0, err
	}
	l, err := htree.NewLayout(cfg.L2Block*cfg.ChunkBlocks, cfg.HashSize, cfg.ProtectedBytes)
	if err != nil {
		return 0, 0, err
	}
	return extentStart(l), l.Size(), nil
}

// extentStart returns where the persisted extent starts in layout l.
func extentStart(l *htree.Layout) uint64 { return l.DataStart() &^ (mem.LineSize - 1) }

// Snapshot is one commit-point capture of a machine's protected state:
// a frozen view of its persisted extent ([start, Layout.Size()) of
// StateExtent), or of only the lines of it written since an earlier
// snapshot, and in both cases a copy of the secure root register.
type Snapshot struct {
	// Seq names this snapshot to the machine that took it. Passed back as
	// since, it asks for the changes made after this snapshot — and is
	// honoured only while this is still the machine's latest snapshot.
	Seq  uint64
	Root []byte
	// View holds the captured bytes in place until it is released. A full
	// view's Image is the extent; a delta view's runs (AppendRuns) are the
	// maximal runs of 64-byte lines written since snapshot since,
	// ascending and numbered from the extent's start, and its Lines the
	// bytes those lines hold, run after run (the extent's last line may be
	// short). Applied in place over the extent of snapshot since, they
	// give the extent of this one. Whoever takes the snapshot releases the
	// view; until then, the machine's first write to each page the view
	// holds copies that page.
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
	start, end := extentStart(m.Layout), m.Layout.Size()
	delta := since != 0 && since == m.snapSeq && m.backing.DirtyLines(start, end) <= maxLines
	m.snapSeq = snapshotSeq.Add(1)
	return Snapshot{Seq: m.snapSeq, Root: append([]byte(nil), m.Sys.Root...), View: m.backing.Freeze(start, end, delta)}, nil
}

// SaveState is SaveStateSince since nothing, materialized: it returns a
// copy of the persisted extent and the root.
func (m *Machine) SaveState() (img []byte, root []byte, err error) {
	snap, err := m.SaveStateSince(0, 0)
	if err != nil {
		return nil, nil, err
	}
	defer snap.View.Release()
	img = make([]byte, 0, m.StateSize())
	snap.View.Image(func(p []byte) error { img = append(img, p...); return nil })
	return img, snap.Root, nil
}

// Root returns a copy of the secure root register: the root hash, or the
// root chunk's MAC record in the i scheme. Call Flush (or SaveState)
// first if the root must cover all program writes issued so far.
func (m *Machine) Root() []byte {
	return append([]byte(nil), m.Sys.Root...)
}

// StateSize returns the size in bytes of the persisted extent SaveState
// and RestoreState exchange (StateExtent).
func (m *Machine) StateSize() uint64 { return m.Layout.Size() - extentStart(m.Layout) }

// RestoreState installs a previously saved persisted extent and root
// register, replacing whatever state the machine holds. The extent's
// bytes are copied into external memory (img stays the caller's) with the
// interior rebuilt from them, every protected line is dropped from the
// caches without write-back (a stale dirty line must not resurface over
// the restored bytes), and the root register is loaded from root — the
// trusted anchor the restored tree is subsequently verified against.
//
// RestoreState does not verify anything itself: reads after it go through
// the ordinary verification walk, so a restored state that disagrees with
// root (tampering, or a rolled-back snapshot) is detected on consumption;
// VerifyAll forces that detection eagerly. Recovery does not come through
// here: internal/persist builds its machines from the saved state
// (NewMachineFromState), which checks the rebuilt root as it builds.
func (m *Machine) RestoreState(img []byte, root []byte) error {
	if err := m.persistable(); err != nil {
		return err
	}
	if err := m.checkState(uint64(len(img)), m.StateSize(), root); err != nil {
		return err
	}
	whole := make([]byte, m.Layout.Size())
	copy(whole[extentStart(m.Layout):], img)
	m.Sys.DeriveTree(whole)
	m.backing.Adopt(whole)
	m.Sys.Root = append(m.Sys.Root[:0], root...)
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

// adoptState makes img, a whole image of the protected region, the
// external memory of a machine under construction and checks it against
// root, loaded into the root register: the interior is first rebuilt from
// img's data and the rebuilt root compared with root. A mismatch is
// recorded as a violation, under the machine's policy.
func (m *Machine) adoptState(img, root []byte) error {
	if err := m.persistable(); err != nil {
		return err
	}
	if err := m.checkState(uint64(len(img)), m.Layout.Size(), root); err != nil {
		return err
	}
	m.Sys.Root = append(m.Sys.Root[:0], root...)
	rebuilt := m.Sys.DeriveTree(img)
	m.backing.Adopt(img)
	m.Sys.CheckRoot(rebuilt, m.Engine.Name())
	return nil
}

// checkState refuses a state whose image is not want bytes long or whose
// root is not one stored record.
func (m *Machine) checkState(got, want uint64, root []byte) error {
	if got != want {
		return fmt.Errorf("core: state image is %d bytes, the %s scheme's state needs %d", got, m.Cfg.Scheme, want)
	}
	if len(root) != m.Layout.HashSize {
		return fmt.Errorf("core: root is %d bytes, layout stores %d-byte records",
			len(root), m.Layout.HashSize)
	}
	return nil
}

// persistable checks the configuration constraints shared by SaveState,
// RestoreState and NewMachineFromState.
func (m *Machine) persistable() error {
	if !m.Cfg.Functional {
		return fmt.Errorf("core: state persistence requires a functional machine")
	}
	return persistableScheme(m.Cfg.Scheme)
}

// persistableScheme refuses the schemes whose state is not persisted: base
// has no root to seal, and i's records are keyed with a public key.
func persistableScheme(s Scheme) error {
	switch s {
	case SchemeBase:
		return fmt.Errorf("core: the base scheme has no authenticated state to persist")
	case SchemeIncr:
		return fmt.Errorf("core: the i scheme is not persisted: its XOR-MAC key is compiled into the program, so anyone who holds the disk could forge its records; i runs in the simulator only")
	}
	return nil
}
