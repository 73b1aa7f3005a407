package persist

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"memverify/internal/core"
	"memverify/internal/shard"
)

// Outcome classifies a recovery.
type Outcome string

const (
	// OutcomeFresh: no WAL and no manifest — nothing was ever persisted.
	OutcomeFresh Outcome = "fresh"
	// OutcomeClean: the last committed epoch restored and re-verified
	// bit-exactly against its sealed root.
	OutcomeClean Outcome = "recovered-clean"
	// OutcomeTorn: a crash interrupted a checkpoint; the tear was
	// resolved deterministically (roll forward to the intended epoch when
	// its segments all landed, roll back to the previous committed epoch
	// otherwise) and the resolved state re-verified against its sealed
	// root.
	OutcomeTorn Outcome = "recovered-torn"
	// OutcomeViolation: the on-disk state is inconsistent in a way no
	// crash can produce, or the restored image fails engine verification
	// against the sealed root — tampering, rollback or replay. The state
	// must not be trusted.
	OutcomeViolation Outcome = "violation"
)

// Recovery reports what recovery found and did.
type Recovery struct {
	Outcome Outcome
	// Epoch is the epoch the store was restored to (0 for fresh, or for
	// a violation where no state was restored).
	Epoch uint64
	// IntentEpoch, CommitEpoch and ManifestEpoch are the raw markers the
	// classification ran on: the highest sealed intent, the highest
	// sealed commit, and the manifest's epoch (0 = absent).
	IntentEpoch, CommitEpoch, ManifestEpoch uint64
	// RolledForward is set when a torn checkpoint was completed from its
	// surviving segments rather than rolled back.
	RolledForward bool
	// WALRepaired is set when recovery rewrote the log (truncated a torn
	// tail or dangling intent, or appended a repair commit).
	WALRepaired bool
	// Detail is a human-readable explanation, set for torn and violation
	// outcomes.
	Detail string
	// Roots holds the restored per-shard root records (nil unless the
	// outcome restored state).
	Roots [][]byte
	// Violations counts engine violations raised while checking the
	// restored image against the sealed root.
	Violations int
	// Elapsed is the wall time the recovery took, including, for
	// RecoverMachine/RecoverStore, the one-pass check of the restored
	// image against the sealed root.
	Elapsed time.Duration
}

// finish stamps the recovery's wall time and fires the OnEvent hook with
// its classification. Safe on a nil rec (hard-error paths).
func finishRecovery(opts Options, rec *Recovery, start time.Time) {
	if rec == nil {
		return
	}
	rec.Elapsed = time.Since(start)
	detail := string(rec.Outcome)
	if rec.Detail != "" {
		detail += ": " + rec.Detail
	}
	opts.note(EventRecovery, rec.Epoch, detail)
}

// errFingerprint marks the loud config-mismatch failure.
var errFingerprint = errors.New("persist: config fingerprint mismatch")

// IsFingerprintMismatch reports whether err is the loud failure for
// recovering under a different scheme/geometry than the store was written
// with.
func IsFingerprintMismatch(err error) bool { return errors.Is(err, errFingerprint) }

// RecoverMachine builds a machine from the last committed state in
// opts.Dir — its chain folded into the persisted extent, and the
// WAL-sealed root — which checks that state against the root before the
// first operation (core.NewMachineFromState): it rebuilds the interior
// from the data and compares the rebuilt root with the sealed one. The
// state, decoded and delta-folded in the buffer its base
// segment was read into, becomes the machine's memory without a copy.
// The returned Recovery classifies what happened; when there is no state
// to restore (fresh, rolled back to nothing, or an on-disk violation) the
// machine is returned fresh so the caller can inspect it, but its state
// is NOT the persisted state.
//
// A hard error (unreadable directory, fingerprint mismatch, a segment in
// another format or extent — a *FormatError — invalid cfg, the i scheme —
// a *shard.SettingError) is returned as err with a nil machine; a cfg is
// refused before anything in opts.Dir is read or repaired.
func RecoverMachine(opts Options, cfg core.Config) (*core.Machine, *Recovery, error) {
	ext, err := extentOf(cfg)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	rec, imgs, roots, err := recoverState(opts, Fingerprint(cfg, 1), 1, ext)
	if err != nil {
		return nil, nil, err
	}
	var m *core.Machine
	if imgs == nil {
		m, err = core.NewMachine(cfg)
	} else {
		m, err = core.NewMachineFromState(cfg, imgs[0], roots[0])
	}
	if err != nil {
		return nil, nil, err
	}
	if imgs != nil {
		rec.engineVerdict(int(m.Sys.Stat.Violations))
		if rec.Outcome != OutcomeViolation {
			rec.Roots = [][]byte{m.Root()}
		}
	}
	finishRecovery(opts, rec, start)
	return m, rec, nil
}

// RecoverStore is RecoverMachine for a sharded store: each shard's machine
// is built from its chain and checks it the same way (shard.NewFromState),
// so one tampered shard is contained — healthy shards restore clean, and
// under the halt policy only the violated shard halts.
func RecoverStore(opts Options, scfg shard.Config) (*shard.Store, *Recovery, error) {
	if scfg.Shards < 1 {
		return nil, nil, fmt.Errorf("persist: need at least one shard, got %d", scfg.Shards)
	}
	start := time.Now()
	per := scfg.Machine
	per.ProtectedBytes = scfg.Machine.ProtectedBytes / uint64(scfg.Shards)
	ext, err := extentOf(per)
	if err != nil {
		return nil, nil, err
	}
	rec, imgs, roots, err := recoverState(opts, Fingerprint(per, scfg.Shards), scfg.Shards, ext)
	if err != nil {
		return nil, nil, err
	}
	var s *shard.Store
	if imgs == nil {
		s, err = shard.New(scfg)
	} else {
		s, err = shard.NewFromState(scfg, imgs, roots)
	}
	if err != nil {
		return nil, nil, err
	}
	if imgs != nil {
		rec.engineVerdict(len(s.Violations()))
		if rec.Outcome != OutcomeViolation {
			rec.Roots = make([][]byte, scfg.Shards)
			for i := range rec.Roots {
				s.WithShard(i, func(m *core.Machine) { rec.Roots[i] = m.Root() })
			}
		}
	}
	finishRecovery(opts, rec, start)
	return s, rec, nil
}

// engineVerdict records the adversarial half of recovery: the violations
// the machines' check of the restored state against the sealed root
// found. The root register came from the WAL; any state that cannot
// reproduce it (stale snapshot, forged data, spliced segment) fails here
// even though every file checksum passed.
func (rec *Recovery) engineVerdict(violations int) {
	rec.Violations = violations
	if violations > 0 {
		rec.Outcome = OutcomeViolation
		rec.Detail = "restored state fails engine verification against the sealed root"
	}
}

// extent is a shard machine's persisted extent, [start, end) of its
// protected region (core.StateExtent).
type extent struct{ start, end uint64 }

// isFormatError reports whether err refuses a segment's format: a hard
// error of recovery, not a violation.
func isFormatError(err error) bool {
	var fe *FormatError
	return errors.As(err, &fe)
}

// extentOf returns the persisted extent of the machines cfg builds,
// refusing a scheme that is not persisted.
func extentOf(cfg core.Config) (extent, error) {
	if err := shard.CheckScheme(cfg.Scheme); err != nil {
		return extent{}, err
	}
	start, end, err := core.StateExtent(cfg)
	return extent{start, end}, err
}

// Recover runs the filesystem-level half of recovery without building any
// machine: WAL replay, torn-state resolution and checksum validation. It
// returns the classification and, for restorable outcomes, leaves the
// directory normalized (torn WAL tails truncated, roll-forwards
// committed). Most callers want RecoverMachine/RecoverStore, which add
// the engine re-verification; Recover alone is the dry-run used by tests
// and tooling.
func Recover(opts Options, cfg core.Config, shards int) (*Recovery, error) {
	if shards < 1 {
		shards = 1
	}
	ext, err := extentOf(cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rec, _, _, err := recoverState(opts, Fingerprint(cfg, shards), shards, ext)
	finishRecovery(opts, rec, start)
	return rec, err
}

// recoverState classifies the on-disk state and loads the epoch it
// resolves to. It returns nil images for outcomes that restore nothing
// (fresh, torn-to-empty, violation).
//
// The classification runs on three markers: I (highest sealed intent
// epoch), C (highest sealed commit epoch) and M (the manifest's epoch).
// The checkpoint protocol (intent → segments → manifest rename → commit)
// and recovery's own normalization guarantee that a pure crash history
// only ever presents I-C ∈ {0,1} and I-M ∈ {0,1} with C ≤ I; every other
// configuration is unreachable by crashes and classifies as a violation:
//
//	M == I, C == I    clean — the normal committed state.
//	M == I, C == I-1  torn — died between manifest rename and commit
//	                  seal; roll forward by appending the commit.
//	M == I-1, C == I-1
//	                  torn — died between intent seal and manifest
//	                  rename. If every epoch-I segment landed intact and
//	                  their roots reproduce the intent digest, complete
//	                  the checkpoint (roll forward); otherwise discard
//	                  the partial epoch and roll back to M.
//	M == I-1, C == I  violation — epoch I was sealed committed but the
//	                  manifest regressed: rollback of committed state.
//	M < I-1           violation — snapshot older than any crash window
//	                  can explain (stale-snapshot replay).
//	M > I             violation — snapshot ahead of the log: the WAL was
//	                  truncated to hide committed epochs.
//	C > I             violation — a commit without its intent.
//
// A torn FINAL WAL record is a crash artifact (appends are sequential)
// and is truncated; a malformed INTERIOR record cannot result from a
// crash and classifies as a violation. The commit record of an epoch must
// carry the same root digest as its intent; disagreement is tampering.
func recoverState(opts Options, expectFP uint64, expectShards int, ext extent) (*Recovery, [][]byte, [][]byte, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OS{}
	}
	if opts.Dir == "" {
		return nil, nil, nil, errors.New("persist: Options.Dir is required")
	}
	rec := &Recovery{Outcome: OutcomeFresh}
	violation := func(detail string) (*Recovery, [][]byte, [][]byte, error) {
		rec.Outcome = OutcomeViolation
		rec.Detail = detail
		return rec, nil, nil, nil
	}

	// 1. Replay the WAL.
	scan, err := scanWAL(fsys, opts.Dir)
	if err != nil {
		if _, statErr := fsys.ReadDir(opts.Dir); statErr != nil {
			return rec, nil, nil, nil // no directory at all: fresh
		}
		return violation(fmt.Sprintf("WAL replay failed: %v", err))
	}
	if scan.TornTail {
		if err := truncateWAL(fsys, opts.Dir, scan.TailBytes); err != nil {
			return nil, nil, nil, fmt.Errorf("persist: truncating torn WAL tail: %w", err)
		}
		rec.WALRepaired = true
	}
	intents := map[uint64][16]byte{}
	var I, C uint64
	var commitDigests = map[uint64][16]byte{}
	for idx, r := range scan.Records {
		if r.Fingerprint != expectFP {
			return nil, nil, nil, fmt.Errorf("%w: WAL record %d sealed under %016x, recovering under %016x",
				errFingerprint, idx, r.Fingerprint, expectFP)
		}
		if int(r.Shards) != expectShards {
			return nil, nil, nil, fmt.Errorf("%w: WAL record %d sealed %d shards, recovering %d",
				errFingerprint, idx, r.Shards, expectShards)
		}
		switch r.Type {
		case recIntent:
			intents[r.Epoch] = r.RootDigest
			if r.Epoch > I {
				I = r.Epoch
			}
		case recCommit:
			commitDigests[r.Epoch] = r.RootDigest
			if r.Epoch > C {
				C = r.Epoch
			}
		}
	}
	rec.IntentEpoch, rec.CommitEpoch = I, C

	// 1b. Check the external trusted-storage anchor before classifying:
	// the classification table only sees the directory's own (internally
	// consistent) story, so a complete replayed copy passes it — the
	// anchor is what pins the directory to the history this deployment
	// actually lived. The anchor may lag by one epoch (crash between WAL
	// fsync and anchor rewrite); any trailing or forked directory is a
	// violation regardless of how clean it looks.
	useAnchor := opts.AnchorPath != ""
	var anch *anchor
	if useAnchor {
		a, aerr := readAnchor(fsys, opts.AnchorPath)
		if aerr != nil {
			return violation(fmt.Sprintf("trusted anchor unreadable: %v", aerr))
		}
		if a == nil && len(scan.Records) > 0 {
			return violation("persisted state exists but the trusted anchor is absent: cannot exclude whole-directory replay")
		}
		if a != nil {
			if err := validateAnchor(a, I, C, intents); err != nil {
				return violation(err.Error())
			}
		}
		anch = a
	}

	// 2. Read the manifest.
	var M uint64
	mbuf, err := readFile(fsys, filepath.Join(opts.Dir, manifestName))
	switch {
	case err == nil:
		man, derr := decodeManifest(mbuf)
		if derr != nil {
			// The manifest is replaced atomically; no crash leaves it
			// malformed.
			return violation(fmt.Sprintf("manifest corrupt: %v", derr))
		}
		if man.Fingerprint != expectFP || int(man.Shards) != expectShards {
			return nil, nil, nil, fmt.Errorf("%w: manifest sealed under %016x/%d shards, recovering under %016x/%d",
				errFingerprint, man.Fingerprint, man.Shards, expectFP, expectShards)
		}
		M = man.Epoch
	case os.IsNotExist(err):
		M = 0
	default:
		return nil, nil, nil, err
	}
	rec.ManifestEpoch = M

	// 3. Classify.
	if I == 0 && C == 0 {
		if M != 0 {
			return violation("snapshot present but the WAL is empty: log truncated")
		}
		return rec, nil, nil, nil // fresh
	}
	if C > I {
		return violation(fmt.Sprintf("commit sealed for epoch %d without its intent", C))
	}
	for e, d := range commitDigests {
		id, ok := intents[e]
		if !ok {
			return violation(fmt.Sprintf("commit sealed for epoch %d without its intent", e))
		}
		if id != d {
			return violation(fmt.Sprintf("epoch %d intent and commit disagree on the root digest", e))
		}
	}
	if M > I {
		return violation(fmt.Sprintf("manifest at epoch %d but the WAL ends at %d: log truncated to hide committed epochs", M, I))
	}

	target := uint64(0)
	switch {
	case M == I && C == I:
		rec.Outcome = OutcomeClean
		target = I
	case M == I && C == I-1:
		// Died after the manifest rename, before the commit seal: the
		// checkpoint is fully on disk. Complete it.
		rec.Outcome = OutcomeTorn
		rec.Detail = fmt.Sprintf("crash between manifest commit and WAL seal of epoch %d; commit repaired", I)
		target = I
		if err := appendRepairCommit(fsys, opts.Dir, I, expectFP, expectShards, intents[I]); err != nil {
			return nil, nil, nil, err
		}
		rec.WALRepaired = true
		if useAnchor {
			if err := writeAnchor(fsys, opts.AnchorPath, &anchor{Intent: I, Commit: I, Digest: intents[I]}); err != nil {
				return nil, nil, nil, fmt.Errorf("persist: anchor: %w", err)
			}
		}
	case M == I-1 && C == I-1:
		// Died between the intent seal and the manifest rename. Epoch I
		// was never committed, so both resolutions are honest; which one
		// applies is decided by what landed.
		segs, loadErr := loadSegments(fsys, opts.Dir, I, expectFP, expectShards, ext)
		if isFormatError(loadErr) {
			return nil, nil, nil, loadErr
		}
		if loadErr == nil && segmentsMatch(I, segs, intents[I]) {
			rec.Outcome = OutcomeTorn
			rec.RolledForward = true
			rec.Detail = fmt.Sprintf("crash before manifest commit of epoch %d; all segments landed, rolled forward", I)
			target = I
			if err := commitManifest(fsys, opts.Dir, I, expectFP, expectShards); err != nil {
				return nil, nil, nil, err
			}
			if err := appendRepairCommit(fsys, opts.Dir, I, expectFP, expectShards, intents[I]); err != nil {
				return nil, nil, nil, err
			}
			rec.WALRepaired = true
			if useAnchor {
				if err := writeAnchor(fsys, opts.AnchorPath, &anchor{Intent: I, Commit: I, Digest: intents[I]}); err != nil {
					return nil, nil, nil, fmt.Errorf("persist: anchor: %w", err)
				}
			}
		} else {
			rec.Outcome = OutcomeTorn
			rec.Detail = fmt.Sprintf("crash during checkpoint of epoch %d; partial epoch discarded, rolled back to %d", I, M)
			target = M
			// Lower the anchor to the post-rollback history BEFORE the WAL
			// rewrite: the dangling intent is honest crash damage (it has
			// no commit seal and the anchor itself vouched for epoch I), so
			// the regression is legitimate here and nowhere else. Dying
			// between the two writes leaves the directory one epoch ahead
			// of the anchor — the accepted crash window — and the next
			// recovery redoes the rollback.
			if useAnchor {
				var keep []walRecord
				for _, r := range scan.Records {
					if r.Epoch != I {
						keep = append(keep, r)
					}
				}
				if err := writeAnchor(fsys, opts.AnchorPath, anchorFromWAL(keep)); err != nil {
					return nil, nil, nil, fmt.Errorf("persist: anchor: %w", err)
				}
			}
			// Drop the dangling intent so the log re-converges to
			// I == C == M; without this, a second crash would stack
			// dangling intents into a state indistinguishable from
			// stale-snapshot tampering.
			if err := truncateDanglingIntent(fsys, opts.Dir, I); err != nil {
				return nil, nil, nil, err
			}
			rec.WALRepaired = true
		}
	case M < I-1 || (M == I-1 && C == I):
		if C > M {
			return violation(fmt.Sprintf("epoch %d is sealed committed but the snapshot is at epoch %d: rollback/replay of committed state", C, M))
		}
		return violation(fmt.Sprintf("snapshot at epoch %d lags the WAL at %d beyond any crash window: stale-snapshot replay", M, I))
	default:
		return violation(fmt.Sprintf("unclassifiable on-disk state (intent %d, commit %d, manifest %d)", I, C, M))
	}
	rec.Epoch = target

	// Heal the anchor's one-epoch crash-window lag on the clean path (the
	// repair paths above already rewrote it).
	if useAnchor && rec.Outcome == OutcomeClean {
		if cur := anchorFromWAL(scan.Records); anch == nil || *anch != *cur {
			if err := writeAnchor(fsys, opts.AnchorPath, cur); err != nil {
				return nil, nil, nil, fmt.Errorf("persist: anchor: %w", err)
			}
		}
	}

	if target == 0 {
		// Rolled back past the first checkpoint: restorable state is the
		// initial (empty) tree, which the caller builds fresh.
		return rec, nil, nil, nil
	}

	// 4. Load and validate the target epoch's segments against the sealed
	// root digest.
	segs, err := loadSegments(fsys, opts.Dir, target, expectFP, expectShards, ext)
	if isFormatError(err) {
		return nil, nil, nil, err
	}
	if err != nil {
		return violation(fmt.Sprintf("epoch %d: %v", target, err))
	}
	intentDigest, ok := intents[target]
	if !ok {
		return violation(fmt.Sprintf("epoch %d has no sealed intent record", target))
	}
	if !segmentsMatch(target, segs, intentDigest) {
		return violation(fmt.Sprintf("epoch %d segment roots do not reproduce the sealed root digest", target))
	}
	imgs := make([][]byte, expectShards)
	roots := make([][]byte, expectShards)
	for i, s := range segs {
		imgs[i], roots[i] = s.Image, s.Root
	}
	return rec, imgs, roots, nil
}

// loadSegments reads every shard's state at epoch e: the shard's chain,
// walked from its epoch-e segment through the back-pointers to its base
// and folded, oldest delta first, into the base's extent. What comes back
// is, per shard, the whole region's image with that extent at its
// address — below it, scratch for the machine to rebuild — under the
// head's root.
func loadSegments(fsys FS, dir string, e uint64, fp uint64, shards int, ext extent) ([]*segment, error) {
	segs := make([]*segment, shards)
	for i := 0; i < shards; i++ {
		s, err := loadChain(fsys, dir, e, i, fp, ext)
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", i, err)
		}
		segs[i] = s
	}
	return segs, nil
}

// loadChain reads one shard's chain. Everything in it is untrusted: the
// walk is bounded by the link cap and by the bytes a chain may hold (the
// limits chain.next writes under), every link must carry the labels its
// file name promises and an extent of the configuration's length (a
// *FormatError otherwise), and what the folded state is worth is for the
// engine's check against the sealed root to say — a link that was
// flipped, forged, dropped, reordered or replayed yields a state that
// cannot reproduce that root.
func loadChain(fsys FS, dir string, e uint64, shard int, fp uint64, ext extent) (*segment, error) {
	var deltas []*segment
	var deltaBytes uint64
	size := ext.end - ext.start
	for at := e; ; {
		buf, off, err := readSegment(fsys, filepath.Join(dir, segName(at, shard)), ext.start)
		if err != nil {
			return nil, fmt.Errorf("epoch %d link missing or unreadable: %w", at, err)
		}
		s, err := decodeSegment(buf[off:])
		if errors.Is(err, errFormat1) {
			return nil, &FormatError{Epoch: at, Shard: shard, Detail: err.Error()}
		}
		if err != nil {
			return nil, fmt.Errorf("epoch %d link: %w", at, err)
		}
		if s.Epoch != at || s.Shard != uint32(shard) || s.Fingerprint != fp {
			return nil, fmt.Errorf("link labeled epoch %d shard %d fp %016x, want epoch %d shard %d fp %016x",
				s.Epoch, s.Shard, s.Fingerprint, at, shard, fp)
		}
		got := uint64(len(s.Image))
		if s.Delta {
			got = s.ImageSize
		}
		if got != size {
			return nil, &FormatError{Epoch: at, Shard: shard, Detail: fmt.Sprintf(
				"%s carries a %d-byte extent, the configuration persists %d bytes from byte %d", s.kind(), got, size, ext.start)}
		}
		if !s.Delta {
			for i := len(deltas) - 1; i >= 0; i-- {
				deltas[i].applyTo(s.Image)
			}
			if len(deltas) > 0 {
				s.Epoch, s.Root = e, deltas[0].Root
			} else {
				s.Root = bytes.Clone(s.Root) // it lies where the interior is rebuilt
			}
			if off != int(ext.start) {
				// The file changed under the read after its magic: give
				// the extent its headroom by a copy.
				whole := make([]byte, ext.end)
				copy(whole[ext.start:], s.Image)
				s.Image = whole
				return s, nil
			}
			// The extent ends the file but for its checksum, and its start
			// in headroom bytes lie before the file: the region's image
			// ends where the extent does.
			end := len(buf) - 8
			s.Image = buf[end-int(ext.end) : end]
			return s, nil
		}
		deltaBytes += uint64(len(buf))
		if len(deltas) == maxChainLinks || deltaBytes > s.ImageSize {
			return nil, fmt.Errorf("chain from epoch %d is longer than any the store writes", e)
		}
		deltas = append(deltas, s)
		at = s.Prev
	}
}

// segmentsMatch recomputes the root digest over the segments' roots and
// compares it to the WAL's sealed digest.
func segmentsMatch(e uint64, segs []*segment, sealed [16]byte) bool {
	roots := make([][]byte, len(segs))
	for i, s := range segs {
		roots[i] = s.Root
	}
	return rootDigest(e, roots) == sealed
}

// appendRepairCommit seals the commit record recovery decided epoch e has
// earned (roll-forward repair).
func appendRepairCommit(fsys FS, dir string, e, fp uint64, shards int, digest [16]byte) error {
	w, err := openWAL(fsys, dir)
	if err != nil {
		return err
	}
	defer w.Close()
	rec := walRecord{Type: recCommit, Epoch: e, Fingerprint: fp, Shards: uint32(shards), RootDigest: digest}
	r := newRetrier(RetryPolicy{}, &Stats{})
	return w.append(rec, r)
}

// commitManifest writes and atomically installs the manifest for epoch e
// (the roll-forward completion of a torn checkpoint).
func commitManifest(fsys FS, dir string, e, fp uint64, shards int) error {
	man := &manifest{Epoch: e, Fingerprint: fp, Shards: uint32(shards)}
	buf := man.encode()
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// truncateDanglingIntent rewrites the WAL without the records of epoch e —
// the intent of a checkpoint recovery rolled back. Records are rewritten
// rather than truncated by offset because a repair commit from an earlier
// recovery may follow the dangling intent.
func truncateDanglingIntent(fsys FS, dir string, e uint64) error {
	scan, err := scanWAL(fsys, dir)
	if err != nil {
		return err
	}
	name := filepath.Join(dir, walName)
	tmp := name + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	for _, r := range scan.Records {
		if r.Epoch == e {
			continue
		}
		if _, err := f.Write(r.encode()); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, name); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}
