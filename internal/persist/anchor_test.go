package persist

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"memverify/internal/core"
)

// anchorPaths returns a store dir and an anchor path in a SEPARATE
// directory — the anchor models external trusted storage, so the replay
// tests can restore the whole store directory without touching it.
func anchorPaths(t *testing.T) (dir, anchorPath string) {
	t.Helper()
	return t.TempDir(), filepath.Join(t.TempDir(), "anchor")
}

// snapshotDir copies every file in dir into a map — the whole-directory
// stash the replay attack restores.
func snapshotDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = buf
	}
	return out
}

// restoreDir wipes dir and reinstalls the stash — a byte-exact replay of
// the older directory, WAL included.
func restoreDir(t *testing.T, dir string, stash map[string][]byte) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	for name, buf := range stash {
		if err := os.WriteFile(filepath.Join(dir, name), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// anchoredEpochs runs n checkpoint rounds in dir with the anchor enabled
// and returns the machine.
func anchoredEpochs(t *testing.T, dir, anchorPath string, cfg core.Config, seed int64, n int) *core.Machine {
	t.Helper()
	m := newMachine(t, cfg)
	rng := rand.New(rand.NewSource(seed))
	st := openStore(t, Options{Dir: dir, AnchorPath: anchorPath, Retry: fastRetry})
	for i := 0; i < n; i++ {
		writeN(t, m, rng, 16)
		if _, err := st.Checkpoint(MachineSource{m}); err != nil {
			t.Fatalf("checkpoint %d: %v", i+1, err)
		}
	}
	return m
}

func TestAnchorCleanRoundtrip(t *testing.T) {
	cfg := testConfig(core.SchemeCached)
	dir, anchorPath := anchorPaths(t)
	m := anchoredEpochs(t, dir, anchorPath, cfg, 7, 2)

	r, rec, err := RecoverMachine(Options{Dir: dir, AnchorPath: anchorPath}, cfg)
	if err != nil {
		t.Fatalf("RecoverMachine: %v", err)
	}
	if rec.Outcome != OutcomeClean || rec.Epoch != 2 {
		t.Fatalf("outcome %s epoch %d (%s), want clean epoch 2", rec.Outcome, rec.Epoch, rec.Detail)
	}
	if !bytes.Equal(r.Root(), m.Root()) {
		t.Fatal("recovered root differs")
	}
	// Continuing through Open with the same anchor must keep working.
	st := openStore(t, Options{Dir: dir, AnchorPath: anchorPath, Retry: fastRetry})
	writeN(t, r, rand.New(rand.NewSource(8)), 8)
	if _, err := st.Checkpoint(MachineSource{r}); err != nil {
		t.Fatalf("post-recovery checkpoint: %v", err)
	}
}

// TestAnchorDetectsWholeDirectoryReplay is the DESIGN §10 hole, closed:
// a byte-exact copy of the epoch-1 directory (WAL and all) is internally
// consistent and recovers CLEAN without the anchor — with the anchor it
// must classify as violation.
func TestAnchorDetectsWholeDirectoryReplay(t *testing.T) {
	cfg := testConfig(core.SchemeCached)
	dir, anchorPath := anchorPaths(t)

	m := newMachine(t, cfg)
	rng := rand.New(rand.NewSource(11))
	st := openStore(t, Options{Dir: dir, AnchorPath: anchorPath, Retry: fastRetry})
	writeN(t, m, rng, 16)
	if _, err := st.Checkpoint(MachineSource{m}); err != nil {
		t.Fatal(err)
	}
	stash := snapshotDir(t, dir)
	writeN(t, m, rng, 16)
	if _, err := st.Checkpoint(MachineSource{m}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	restoreDir(t, dir, stash)

	// Without the anchor the replay is undetectable — the documented hole.
	_, recNo, err := RecoverMachine(Options{Dir: dir}, cfg)
	if err != nil {
		t.Fatalf("RecoverMachine without anchor: %v", err)
	}
	if recNo.Outcome != OutcomeClean || recNo.Epoch != 1 {
		t.Fatalf("replayed dir without anchor: %s epoch %d, want clean epoch 1 (the hole this test documents)",
			recNo.Outcome, recNo.Epoch)
	}

	// With the anchor it is a violation, and nothing is restored.
	_, rec, err := RecoverMachine(Options{Dir: dir, AnchorPath: anchorPath}, cfg)
	if err != nil {
		t.Fatalf("RecoverMachine with anchor: %v", err)
	}
	if rec.Outcome != OutcomeViolation {
		t.Fatalf("replayed dir with anchor: outcome %s (%s), want violation", rec.Outcome, rec.Detail)
	}

	// Open must refuse the replayed directory too — the daemon restart
	// path cannot silently re-bless it.
	if _, err := Open(Options{Dir: dir, AnchorPath: anchorPath, Retry: fastRetry}); err == nil {
		t.Fatal("Open accepted a replayed directory against the anchor")
	}
}

// TestAnchorDetectsWipedDirectory: deleting the whole directory (restart
// from scratch) while the anchor says committed epochs exist is a replay
// to epoch 0.
func TestAnchorDetectsWipedDirectory(t *testing.T) {
	cfg := testConfig(core.SchemeCached)
	dir, anchorPath := anchorPaths(t)
	anchoredEpochs(t, dir, anchorPath, cfg, 13, 1)
	restoreDir(t, dir, map[string][]byte{})

	_, rec, err := RecoverMachine(Options{Dir: dir, AnchorPath: anchorPath}, cfg)
	if err != nil {
		t.Fatalf("RecoverMachine: %v", err)
	}
	if rec.Outcome != OutcomeViolation {
		t.Fatalf("wiped dir: outcome %s (%s), want violation", rec.Outcome, rec.Detail)
	}
}

// TestAnchorAbsentWithState: state on disk but no anchor file means the
// trusted side cannot vouch for the history — violation, not silent
// enrollment, on the recovery path.
func TestAnchorAbsentWithState(t *testing.T) {
	cfg := testConfig(core.SchemeCached)
	dir, anchorPath := anchorPaths(t)
	anchoredEpochs(t, dir, anchorPath, cfg, 17, 1)
	if err := os.Remove(anchorPath); err != nil {
		t.Fatal(err)
	}
	_, rec, err := RecoverMachine(Options{Dir: dir, AnchorPath: anchorPath}, cfg)
	if err != nil {
		t.Fatalf("RecoverMachine: %v", err)
	}
	if rec.Outcome != OutcomeViolation {
		t.Fatalf("absent anchor: outcome %s (%s), want violation", rec.Outcome, rec.Detail)
	}
}

// TestAnchorCorrupt: an unreadable anchor is a violation — trusted
// storage disagreeing with itself is never ignored.
func TestAnchorCorrupt(t *testing.T) {
	cfg := testConfig(core.SchemeCached)
	dir, anchorPath := anchorPaths(t)
	anchoredEpochs(t, dir, anchorPath, cfg, 19, 1)
	if err := os.WriteFile(anchorPath, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec, err := RecoverMachine(Options{Dir: dir, AnchorPath: anchorPath}, cfg)
	if err != nil {
		t.Fatalf("RecoverMachine: %v", err)
	}
	if rec.Outcome != OutcomeViolation {
		t.Fatalf("corrupt anchor: outcome %s (%s), want violation", rec.Outcome, rec.Detail)
	}
}

// TestAnchorLagWindowAccepted: the process can die between a WAL fsync
// and the anchor rewrite, leaving the directory one epoch ahead of the
// anchor. That window is honest and must recover clean (and heal the
// anchor).
func TestAnchorLagWindowAccepted(t *testing.T) {
	cfg := testConfig(core.SchemeCached)
	dir, anchorPath := anchorPaths(t)

	m := newMachine(t, cfg)
	rng := rand.New(rand.NewSource(23))
	st := openStore(t, Options{Dir: dir, AnchorPath: anchorPath, Retry: fastRetry})
	writeN(t, m, rng, 16)
	if _, err := st.Checkpoint(MachineSource{m}); err != nil {
		t.Fatal(err)
	}
	epoch1Anchor, err := os.ReadFile(anchorPath)
	if err != nil {
		t.Fatal(err)
	}
	writeN(t, m, rng, 16)
	if _, err := st.Checkpoint(MachineSource{m}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Roll the anchor back one epoch — the crash-window state.
	if err := os.WriteFile(anchorPath, epoch1Anchor, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec, err := RecoverMachine(Options{Dir: dir, AnchorPath: anchorPath}, cfg)
	if err != nil {
		t.Fatalf("RecoverMachine: %v", err)
	}
	if rec.Outcome != OutcomeClean || rec.Epoch != 2 {
		t.Fatalf("lagging anchor: outcome %s epoch %d (%s), want clean epoch 2", rec.Outcome, rec.Epoch, rec.Detail)
	}
	// Healed: a second recovery must see anchor == directory.
	a, err := readAnchor(OS{}, anchorPath)
	if err != nil || a == nil {
		t.Fatalf("anchor after heal: %v / %v", a, err)
	}
	if a.Intent != 2 || a.Commit != 2 {
		t.Fatalf("anchor not healed: intent %d commit %d, want 2/2", a.Intent, a.Commit)
	}
}

// TestAnchorDetectsForkedHistory: a directory with the SAME epoch
// numbers but different contents (a parallel universe built from a
// different write history) disagrees with the anchored root digest.
func TestAnchorDetectsForkedHistory(t *testing.T) {
	cfg := testConfig(core.SchemeCached)
	dir, anchorPath := anchorPaths(t)
	anchoredEpochs(t, dir, anchorPath, cfg, 29, 1)

	// Build the fork in a second directory (no anchor), same epoch count.
	forkDir := t.TempDir()
	fm := newMachine(t, cfg)
	fst := openStore(t, Options{Dir: forkDir, Retry: fastRetry})
	writeN(t, fm, rand.New(rand.NewSource(31)), 16)
	if _, err := fst.Checkpoint(MachineSource{fm}); err != nil {
		t.Fatal(err)
	}
	fst.Close()
	restoreDir(t, dir, snapshotDir(t, forkDir))

	_, rec, err := RecoverMachine(Options{Dir: dir, AnchorPath: anchorPath}, cfg)
	if err != nil {
		t.Fatalf("RecoverMachine: %v", err)
	}
	if rec.Outcome != OutcomeViolation {
		t.Fatalf("forked history: outcome %s (%s), want violation", rec.Outcome, rec.Detail)
	}
}

// TestAnchorSurvivesRollbackRepair: a torn checkpoint rolled back
// rewrites the WAL (truncateDanglingIntent); the anchor must follow the
// repair so the NEXT recovery still agrees — and the post-repair
// directory must not read as a replay.
func TestAnchorSurvivesRollbackRepair(t *testing.T) {
	cfg := testConfig(core.SchemeCached)
	dir, anchorPath := anchorPaths(t)

	m := newMachine(t, cfg)
	rng := rand.New(rand.NewSource(37))
	ffs := NewFaultFS(nil)
	st := openStore(t, Options{Dir: dir, FS: ffs, AnchorPath: anchorPath, Retry: fastRetry})
	writeN(t, m, rng, 16)
	if _, err := st.Checkpoint(MachineSource{m}); err != nil {
		t.Fatal(err)
	}
	ffs.Kill(KillRule{Stage: StageBetween})
	writeN(t, m, rng, 16)
	if _, err := st.Checkpoint(MachineSource{m}); err == nil {
		t.Fatal("checkpoint survived kill")
	}

	_, rec1, err := RecoverMachine(Options{Dir: dir, AnchorPath: anchorPath}, cfg)
	if err != nil {
		t.Fatalf("first recovery: %v", err)
	}
	if rec1.Outcome != OutcomeTorn || rec1.Epoch != 1 {
		t.Fatalf("first recovery: %s epoch %d (%s), want torn epoch 1", rec1.Outcome, rec1.Epoch, rec1.Detail)
	}
	_, rec2, err := RecoverMachine(Options{Dir: dir, AnchorPath: anchorPath}, cfg)
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	if rec2.Outcome != OutcomeClean || rec2.Epoch != 1 {
		t.Fatalf("second recovery: %s epoch %d (%s), want clean epoch 1", rec2.Outcome, rec2.Epoch, rec2.Detail)
	}
}

func TestAnchorEncodeDecode(t *testing.T) {
	a := &anchor{Intent: 12, Commit: 11}
	for i := range a.Digest {
		a.Digest[i] = byte(i * 3)
	}
	got, err := decodeAnchor(a.encode())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *a {
		t.Fatalf("roundtrip: %+v != %+v", got, a)
	}
	buf := a.encode()
	buf[25] ^= 1
	if _, err := decodeAnchor(buf); err == nil {
		t.Fatal("corrupt anchor decoded")
	}
}
