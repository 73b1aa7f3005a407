package persist

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memverify/internal/core"
	"memverify/internal/shard"
	"memverify/internal/trace"
)

// testConfig builds a small functional machine configuration.
func testConfig(scheme core.Scheme, hashMode string) core.Config {
	cfg := core.DefaultConfig()
	cfg.Scheme = scheme
	cfg.Functional = true
	cfg.HashAlg = "fnv128"
	cfg.HashMode = hashMode
	cfg.ViolationPolicy = "record"
	cfg.ProtectedBytes = 16 << 10
	cfg.L2Size = 8 << 10
	cfg.Benchmark = trace.Uniform("persist", cfg.ProtectedBytes/2)
	cfg.Benchmark.CodeSet = 4 << 10
	if scheme == core.SchemeMulti || scheme == core.SchemeIncr {
		cfg.ChunkBlocks = 2
	}
	return cfg
}

// noSync is the real disk without its fsyncs, for properties that run
// hundreds of checkpoints and whose crashes are FaultFS's, not the host's.
type noSync struct{ OS }

type noSyncFile struct{ File }

func (noSync) SyncDir(string) error { return nil }
func (noSyncFile) Sync() error      { return nil }
func (n noSync) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := n.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

// fastRetry keeps test backoff sleeps negligible.
var fastRetry = RetryPolicy{Attempts: 3, BaseDelay: 1, MaxDelay: 1}

// writeN performs n deterministic random writes against m.
func writeN(t *testing.T, m *core.Machine, rng *rand.Rand, n int) {
	t.Helper()
	span := m.ProgSpan()
	buf := make([]byte, 64)
	for i := 0; i < n; i++ {
		rng.Read(buf)
		off := (rng.Uint64() % (span - 64)) &^ 7
		if err := m.StoreBytes(off, buf); err != nil {
			t.Fatalf("store: %v", err)
		}
	}
}

func newMachine(t *testing.T, cfg core.Config) *core.Machine {
	t.Helper()
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	return m
}

func openStore(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestCheckpointRecoverRoundtrip(t *testing.T) {
	for _, scheme := range []core.Scheme{core.SchemeNaive, core.SchemeCached, core.SchemeMulti, core.SchemeIncr} {
		t.Run(string(scheme), func(t *testing.T) {
			cfg := testConfig(scheme, "full")
			dir := t.TempDir()
			m := newMachine(t, cfg)
			rng := rand.New(rand.NewSource(7))
			writeN(t, m, rng, 48)

			st := openStore(t, Options{Dir: dir, Retry: fastRetry})
			epoch, err := st.Checkpoint(MachineSource{m})
			if err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			if epoch != 1 {
				t.Fatalf("epoch = %d, want 1", epoch)
			}
			wantRoot := m.Root()

			// Read back the whole region for the bytes comparison.
			want := make([]byte, m.ProgSpan())
			if err := m.LoadBytes(0, want); err != nil {
				t.Fatalf("reference read: %v", err)
			}

			r, rec, err := RecoverMachine(Options{Dir: dir}, cfg)
			if err != nil {
				t.Fatalf("RecoverMachine: %v", err)
			}
			if rec.Outcome != OutcomeClean {
				t.Fatalf("outcome = %s (%s), want clean", rec.Outcome, rec.Detail)
			}
			if rec.Epoch != 1 {
				t.Fatalf("recovered epoch = %d, want 1", rec.Epoch)
			}
			if !bytes.Equal(r.Root(), wantRoot) {
				t.Fatalf("recovered root %x != checkpointed root %x", r.Root(), wantRoot)
			}
			got := make([]byte, r.ProgSpan())
			if err := r.LoadBytes(0, got); err != nil {
				t.Fatalf("recovered read: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("recovered data differs from checkpointed data")
			}
		})
	}
}

func TestCheckpointRecoverStore(t *testing.T) {
	scfg := shard.Config{Machine: testConfig(core.SchemeCached, "full"), Shards: 4}
	scfg.Machine.ProtectedBytes = 64 << 10
	dir := t.TempDir()

	s, err := shard.New(scfg)
	if err != nil {
		t.Fatalf("shard.New: %v", err)
	}
	rng := rand.New(rand.NewSource(3))
	buf := make([]byte, 64)
	for i := 0; i < 128; i++ {
		rng.Read(buf)
		off := rng.Uint64() % (s.Span() - 64)
		if err := s.StoreBytes(off, buf); err != nil {
			t.Fatalf("store: %v", err)
		}
	}
	st := openStore(t, Options{Dir: dir, Retry: fastRetry})
	if _, err := st.Checkpoint(StoreSource{s}); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	wantRoots := make([][]byte, s.Shards())
	for i := range wantRoots {
		i := i
		s.WithShard(i, func(m *core.Machine) { wantRoots[i] = m.Root() })
	}
	want := make([]byte, s.Span())
	if err := s.LoadBytes(0, want); err != nil {
		t.Fatalf("reference read: %v", err)
	}
	s.Close()

	r, rec, err := RecoverStore(Options{Dir: dir}, scfg)
	if err != nil {
		t.Fatalf("RecoverStore: %v", err)
	}
	defer r.Close()
	if rec.Outcome != OutcomeClean {
		t.Fatalf("outcome = %s (%s), want clean", rec.Outcome, rec.Detail)
	}
	for i, want := range wantRoots {
		if !bytes.Equal(rec.Roots[i], want) {
			t.Fatalf("shard %d root mismatch", i)
		}
	}
	got := make([]byte, r.Span())
	if err := r.LoadBytes(0, got); err != nil {
		t.Fatalf("recovered read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered store data differs")
	}
}

// checkpointEpochs runs rounds of write→checkpoint, returning the root
// sealed at each epoch (index 0 = epoch 1).
func checkpointEpochs(t *testing.T, dir string, cfg core.Config, rounds int) ([][]byte, *core.Machine) {
	t.Helper()
	m := newMachine(t, cfg)
	st := openStore(t, Options{Dir: dir, Retry: fastRetry})
	rng := rand.New(rand.NewSource(11))
	var roots [][]byte
	for i := 0; i < rounds; i++ {
		writeN(t, m, rng, 24)
		if _, err := st.Checkpoint(MachineSource{m}); err != nil {
			t.Fatalf("checkpoint %d: %v", i+1, err)
		}
		roots = append(roots, m.Root())
	}
	return roots, m
}

func TestRecoveryEdgeCases(t *testing.T) {
	cfg := testConfig(core.SchemeCached, "full")

	type tc struct {
		name    string
		prep    func(t *testing.T, dir string) // after 2 committed epochs
		outcome Outcome
		epoch   uint64
	}
	cases := []tc{
		{
			name:    "clean",
			prep:    func(t *testing.T, dir string) {},
			outcome: OutcomeClean,
			epoch:   2,
		},
		{
			name: "torn-partial-final-record",
			prep: func(t *testing.T, dir string) {
				// A torn append: half a record of garbage at the tail.
				f, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				f.Write(make([]byte, walRecordSize/2))
				f.Close()
			},
			outcome: OutcomeClean, // tail discarded; committed state intact
			epoch:   2,
		},
		{
			name: "checksum-corrupt-final-record",
			prep: func(t *testing.T, dir string) {
				name := filepath.Join(dir, walName)
				buf, err := os.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				buf[len(buf)-1] ^= 0xff // flip inside the final checksum
				os.WriteFile(name, buf, 0o644)
			},
			// The final record is the epoch-2 commit; with it gone the
			// state reads as "died before sealing the commit" and rolls
			// forward.
			outcome: OutcomeTorn,
			epoch:   2,
		},
		{
			name: "checksum-corrupt-interior-record",
			prep: func(t *testing.T, dir string) {
				name := filepath.Join(dir, walName)
				buf, err := os.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				buf[walRecordSize/2] ^= 0xff // first record's payload
				os.WriteFile(name, buf, 0o644)
			},
			outcome: OutcomeViolation,
		},
		{
			name: "segment-bitflip",
			prep: func(t *testing.T, dir string) {
				name := filepath.Join(dir, segName(2, 0))
				buf, err := os.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				buf[len(buf)/2] ^= 1
				os.WriteFile(name, buf, 0o644)
			},
			outcome: OutcomeViolation,
		},
		{
			name: "segment-missing",
			prep: func(t *testing.T, dir string) {
				os.Remove(filepath.Join(dir, segName(2, 0)))
			},
			outcome: OutcomeViolation,
		},
		{
			name: "wal-truncated-to-empty",
			prep: func(t *testing.T, dir string) {
				os.Truncate(filepath.Join(dir, walName), 0)
			},
			outcome: OutcomeViolation,
		},
		{
			name: "wal-truncated-one-epoch",
			prep: func(t *testing.T, dir string) {
				// Chop the log back to epoch 1 while the snapshot is at
				// epoch 2: hiding committed epochs.
				os.Truncate(filepath.Join(dir, walName), 2*walRecordSize)
			},
			outcome: OutcomeViolation,
		},
		{
			name: "manifest-corrupt",
			prep: func(t *testing.T, dir string) {
				name := filepath.Join(dir, manifestName)
				buf, err := os.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				buf[5] ^= 0xff
				os.WriteFile(name, buf, 0o644)
			},
			outcome: OutcomeViolation,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			roots, _ := checkpointEpochs(t, dir, cfg, 2)
			c.prep(t, dir)
			m, rec, err := RecoverMachine(Options{Dir: dir}, cfg)
			if err != nil {
				t.Fatalf("RecoverMachine: %v", err)
			}
			if rec.Outcome != c.outcome {
				t.Fatalf("outcome = %s (%s), want %s", rec.Outcome, rec.Detail, c.outcome)
			}
			if c.outcome != OutcomeViolation {
				if rec.Epoch != c.epoch {
					t.Fatalf("epoch = %d, want %d", rec.Epoch, c.epoch)
				}
				if !bytes.Equal(m.Root(), roots[c.epoch-1]) {
					t.Fatalf("recovered root differs from the sealed epoch-%d root", c.epoch)
				}
			}
		})
	}
}

func TestRecoverFresh(t *testing.T) {
	cfg := testConfig(core.SchemeCached, "full")
	for _, sub := range []struct {
		name string
		prep func(t *testing.T, dir string)
	}{
		{"empty-dir", func(t *testing.T, dir string) {}},
		{"empty-wal-file", func(t *testing.T, dir string) {
			os.WriteFile(filepath.Join(dir, walName), nil, 0o644)
		}},
	} {
		t.Run(sub.name, func(t *testing.T) {
			dir := t.TempDir()
			sub.prep(t, dir)
			_, rec, err := RecoverMachine(Options{Dir: dir}, cfg)
			if err != nil {
				t.Fatalf("RecoverMachine: %v", err)
			}
			if rec.Outcome != OutcomeFresh {
				t.Fatalf("outcome = %s, want fresh", rec.Outcome)
			}
		})
	}
}

func TestFingerprintMismatchFailsLoudly(t *testing.T) {
	cfg := testConfig(core.SchemeCached, "full")
	dir := t.TempDir()
	checkpointEpochs(t, dir, cfg, 1)

	other := testConfig(core.SchemeMulti, "full")
	_, _, err := RecoverMachine(Options{Dir: dir}, other)
	if err == nil || !IsFingerprintMismatch(err) {
		t.Fatalf("recovering under a different scheme: err = %v, want fingerprint mismatch", err)
	}

	// Same scheme, different geometry.
	geo := cfg
	geo.ProtectedBytes *= 2
	geo.Benchmark = trace.Uniform("persist", geo.ProtectedBytes/2)
	geo.Benchmark.CodeSet = 4 << 10
	_, _, err = RecoverMachine(Options{Dir: dir}, geo)
	if err == nil || !IsFingerprintMismatch(err) {
		t.Fatalf("recovering under different geometry: err = %v, want fingerprint mismatch", err)
	}
}

func TestStaleSnapshotReplayDetected(t *testing.T) {
	cfg := testConfig(core.SchemeCached, "full")
	dir := t.TempDir()

	m := newMachine(t, cfg)
	st := openStore(t, Options{Dir: dir, Retry: fastRetry})
	rng := rand.New(rand.NewSource(5))

	writeN(t, m, rng, 24)
	if _, err := st.Checkpoint(MachineSource{m}); err != nil {
		t.Fatal(err)
	}
	// Stash the epoch-1 snapshot (a valid, fully committed state).
	man1, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	seg1, err := os.ReadFile(filepath.Join(dir, segName(1, 0)))
	if err != nil {
		t.Fatal(err)
	}

	writeN(t, m, rng, 24)
	if _, err := st.Checkpoint(MachineSource{m}); err != nil {
		t.Fatal(err)
	}

	// Replay attack: reinstall the stale-but-internally-valid epoch-1
	// snapshot over the committed epoch-2 one, leaving the WAL alone.
	os.WriteFile(filepath.Join(dir, manifestName), man1, 0o644)
	os.WriteFile(filepath.Join(dir, segName(1, 0)), seg1, 0o644)
	os.Remove(filepath.Join(dir, segName(2, 0)))

	_, rec, err := RecoverMachine(Options{Dir: dir}, cfg)
	if err != nil {
		t.Fatalf("RecoverMachine: %v", err)
	}
	if rec.Outcome != OutcomeViolation {
		t.Fatalf("stale snapshot replay: outcome = %s (%s), want violation", rec.Outcome, rec.Detail)
	}
}

// killScript is one shape of the kill-point property: the 64-byte stores
// of each epoch, the last epoch's checkpoint being the one killed, and
// what that checkpoint must be writing when it dies.
type killScript struct {
	name   string
	writes []int
	delta  bool // the killed checkpoint writes a delta; otherwise a base
	deltas int  // deltas in the chain the killed checkpoint extends or closes
	// gc aims the kill past the checkpoint's own writes, at the first
	// segment its garbage collection removes: the checkpoint commits.
	gc bool
}

// killScripts puts the killed checkpoint, in turn, on every branch of the
// base-or-delta choice. The test machine's image is 341 lines; a 64-byte
// store at an 8-byte-aligned offset dirties two data lines and its path
// of the tree.
func killScripts(stage string) []killScript {
	idle := make([]int, maxChainLinks+2) // a base, then a delta per idle epoch up to the cap
	idle[0], idle[len(idle)-1] = 16, 4
	scripts := []killScript{
		{name: "delta", writes: []int{16, 4}, delta: true},
		{name: "base-half-image", writes: []int{16, 4, 400}, deltas: 1},
		{name: "base-cumulative-bytes", writes: []int{16, 30, 30, 30, 30}, deltas: 3},
		{name: "base-link-cap", writes: idle, deltas: maxChainLinks},
	}
	if stage == StageSegWrite {
		// FaultFS counts a Remove as a write to the segment it removes.
		scripts = append(scripts, killScript{name: "gc-interrupted", writes: []int{16, 4, 400}, deltas: 1, gc: true})
	}
	return scripts
}

// legacyMode is the hash mode PR 25 deleted. It was a simulator-side digest
// cache, so a directory it wrote is byte for byte one written under full
// (the fingerprint never named the mode). A daemon restarted after the
// upgrade with a config still naming it must be refused before recovery
// normalizes anything on disk: the legacy legs below write under full and
// check that refusal at every point of the same properties.
const legacyMode = "memo"

// requireRefusedUntouched runs a recovery of dir under a config naming
// legacyMode and requires a hard error that names the mode and leaves every
// file in dir as it was.
func requireRefusedUntouched(t *testing.T, dir string, recover func() error) {
	t.Helper()
	before := dirFiles(t, dir)
	if err := recover(); err == nil || !strings.Contains(err.Error(), legacyMode) {
		t.Fatalf("recovery under hash mode %q: err = %v, want a refusal naming the mode", legacyMode, err)
	}
	after := dirFiles(t, dir)
	for name, b := range before {
		if a, ok := after[name]; !ok || !bytes.Equal(a, b) {
			t.Fatalf("a refused recovery changed %s", name)
		}
	}
	for name := range after {
		if _, ok := before[name]; !ok {
			t.Fatalf("a refused recovery created %s", name)
		}
	}
}

// dirFiles reads every file in dir.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

// TestKillPointProperty is the seeded property test: a checkpoint→kill→
// recover cycle at ANY kill point yields a root byte-identical to some
// committed epoch of an uninterrupted reference run — never a novel root,
// never a silent violation — across all persistable schemes, whichever
// kind of segment the killed checkpoint was writing. The legacyMode legs
// first require the killed directory to be refused, untouched, under a
// config naming the deleted mode.
func TestKillPointProperty(t *testing.T) {
	stages := []string{
		StageWALWrite, StageWALSync, StageBetween,
		StageSegWrite, StageSegSync,
		StageManifestWrite, StageManifestRename,
	}
	schemes := []core.Scheme{core.SchemeNaive, core.SchemeCached, core.SchemeMulti, core.SchemeIncr}
	modes := []string{"full", legacyMode}
	for _, scheme := range schemes {
		for _, mode := range modes {
			for _, stage := range stages {
				t.Run(string(scheme)+"/"+mode+"/"+stage, func(t *testing.T) {
					for _, script := range killScripts(stage) {
						t.Run(script.name, func(t *testing.T) {
							killPointCycle(t, scheme, mode, stage, script)
						})
					}
				})
			}
		}
	}
}

func killPointCycle(t *testing.T, scheme core.Scheme, mode, stage string, script killScript) {
	cfg := testConfig(scheme, "full")
	dir := t.TempDir()
	last := len(script.writes) // the killed epoch

	// Reference: the same workload through a store nothing kills — roots
	// per epoch (epoch 0 = initial), and what kind of segment each
	// checkpoint wrote.
	ref := newMachine(t, cfg)
	refRng := rand.New(rand.NewSource(42))
	refStore := openStore(t, Options{Dir: t.TempDir(), FS: noSync{}, Retry: fastRetry})
	refRoots := [][]byte{ref.Root()}
	for _, n := range script.writes {
		before := refStore.Stats()
		writeN(t, ref, refRng, n)
		if _, err := refStore.Checkpoint(MachineSource{ref}); err != nil {
			t.Fatalf("reference checkpoint: %v", err)
		}
		refRoots = append(refRoots, ref.Root())
		if len(refRoots)-1 == last {
			wrote := refStore.Stats().DeltaSegments > before.DeltaSegments
			if wrote != script.delta || before.ChainLinks != uint64(script.deltas) {
				t.Fatalf("script %s: the killed checkpoint writes delta=%v onto a chain of %d deltas, want delta=%v onto %d",
					script.name, wrote, before.ChainLinks, script.delta, script.deltas)
			}
		}
	}

	// Victim: same workload, checkpoint each round, killed during the
	// LAST checkpoint.
	ffs := NewFaultFS(noSync{})
	m := newMachine(t, cfg)
	rng := rand.New(rand.NewSource(42))
	st := openStore(t, Options{Dir: dir, FS: ffs, Retry: fastRetry})
	for e, n := range script.writes[:last-1] {
		writeN(t, m, rng, n)
		if _, err := st.Checkpoint(MachineSource{m}); err != nil {
			t.Fatalf("checkpoint %d: %v", e+1, err)
		}
	}
	if !bytes.Equal(m.Root(), refRoots[last-1]) {
		t.Fatalf("victim and reference diverged before the kill")
	}

	rule := KillRule{Stage: stage}
	if script.gc {
		rule.After = 3 // a base's header, image and trailer
	}
	ffs.Kill(rule)
	writeN(t, m, rng, script.writes[last-1])
	_, err := st.Checkpoint(MachineSource{m})
	if !ffs.Killed() {
		t.Skipf("stage %s not reached in this protocol phase", stage)
	}
	if (err == nil) != script.gc {
		t.Fatalf("killed checkpoint returned %v", err)
	}

	// Restart: recover from the real directory with a clean FS.
	if mode == legacyMode {
		requireRefusedUntouched(t, dir, func() error {
			_, _, err := RecoverMachine(Options{Dir: dir}, testConfig(scheme, mode))
			return err
		})
	}
	r, rec, err := RecoverMachine(Options{Dir: dir}, cfg)
	if err != nil {
		t.Fatalf("RecoverMachine: %v", err)
	}
	if rec.Outcome == OutcomeViolation {
		t.Fatalf("clean kill/restart classified as violation: %s", rec.Detail)
	}
	if rec.Outcome == OutcomeFresh {
		t.Fatalf("committed epoch %d lost: recovery says fresh", last-1)
	}
	if rec.Epoch != uint64(last-1) && rec.Epoch != uint64(last) {
		t.Fatalf("recovered to epoch %d, want %d or %d", rec.Epoch, last-1, last)
	}
	if script.gc && (rec.Outcome != OutcomeClean || rec.Epoch != uint64(last)) {
		t.Fatalf("a checkpoint that died collecting garbage recovered %s at epoch %d, want clean at %d", rec.Outcome, rec.Epoch, last)
	}
	if !bytes.Equal(r.Root(), refRoots[rec.Epoch]) {
		t.Fatalf("recovered root is not byte-identical to the reference epoch-%d root", rec.Epoch)
	}

	// The recovered machine must be fully usable: resume the workload and
	// checkpoint again through a fresh store, which leaves behind nothing
	// the new epoch does not reach.
	st2 := openStore(t, Options{Dir: dir, Retry: fastRetry})
	writeN(t, r, rand.New(rand.NewSource(43)), 8)
	epoch, err := st2.Checkpoint(MachineSource{r})
	if err != nil {
		t.Fatalf("post-recovery checkpoint: %v", err)
	}
	_, rec2, err := RecoverMachine(Options{Dir: dir}, cfg)
	if err != nil || rec2.Outcome != OutcomeClean {
		t.Fatalf("post-recovery state not clean: %v / %+v", err, rec2)
	}
	if names, err := listSegments(OS{}, dir); err != nil || len(names) != 1 || names[0] != segName(epoch, 0) {
		t.Fatalf("segments after the post-recovery checkpoint: %v (%v), want only epoch %d's", names, err, epoch)
	}
}

// TestDoubleCrashRollback stacks two torn checkpoints: recovery must
// normalize the WAL after the first so the second still reads as a crash,
// not as tampering.
func TestDoubleCrashRollback(t *testing.T) {
	cfg := testConfig(core.SchemeCached, "full")
	dir := t.TempDir()

	m := newMachine(t, cfg)
	rng := rand.New(rand.NewSource(9))
	{
		ffs := NewFaultFS(nil)
		st := openStore(t, Options{Dir: dir, FS: ffs, Retry: fastRetry})
		writeN(t, m, rng, 16)
		if _, err := st.Checkpoint(MachineSource{m}); err != nil {
			t.Fatal(err)
		}
		ffs.Kill(KillRule{Stage: StageBetween})
		writeN(t, m, rng, 16)
		if _, err := st.Checkpoint(MachineSource{m}); err == nil {
			t.Fatal("checkpoint survived kill")
		}
	}
	r1, rec1, err := RecoverMachine(Options{Dir: dir}, cfg)
	if err != nil || rec1.Outcome != OutcomeTorn || rec1.Epoch != 1 {
		t.Fatalf("first crash: %v / %+v", err, rec1)
	}
	{
		ffs := NewFaultFS(nil)
		st := openStore(t, Options{Dir: dir, FS: ffs, Retry: fastRetry})
		ffs.Kill(KillRule{Stage: StageBetween})
		writeN(t, r1, rand.New(rand.NewSource(10)), 16)
		if _, err := st.Checkpoint(MachineSource{r1}); err == nil {
			t.Fatal("checkpoint survived kill")
		}
	}
	_, rec2, err := RecoverMachine(Options{Dir: dir}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Outcome != OutcomeTorn || rec2.Epoch != 1 {
		t.Fatalf("second crash: outcome %s epoch %d (%s), want torn epoch 1", rec2.Outcome, rec2.Epoch, rec2.Detail)
	}
}

func TestRetryBackoff(t *testing.T) {
	cfg := testConfig(core.SchemeCached, "full")

	t.Run("transient-recovers", func(t *testing.T) {
		dir := t.TempDir()
		ffs := NewFaultFS(nil)
		m := newMachine(t, cfg)
		st := openStore(t, Options{Dir: dir, FS: ffs, Retry: fastRetry})
		writeN(t, m, rand.New(rand.NewSource(1)), 16)
		ffs.FailTransient(2)
		if _, err := st.Checkpoint(MachineSource{m}); err != nil {
			t.Fatalf("checkpoint with transient faults: %v", err)
		}
		if got := st.Stats().Retries; got < 2 {
			t.Fatalf("Retries = %d, want >= 2", got)
		}
		if st.Stats().RetryExhausted != 0 {
			t.Fatalf("RetryExhausted = %d, want 0", st.Stats().RetryExhausted)
		}
	})

	t.Run("exhaustion-halt-policy", func(t *testing.T) {
		dir := t.TempDir()
		ffs := NewFaultFS(nil)
		m := newMachine(t, cfg)
		st := openStore(t, Options{Dir: dir, FS: ffs, Retry: RetryPolicy{Attempts: 2, BaseDelay: 1, MaxDelay: 1}, Policy: "halt"})
		writeN(t, m, rand.New(rand.NewSource(1)), 16)
		ffs.FailTransient(100)
		if _, err := st.Checkpoint(MachineSource{m}); err == nil {
			t.Fatal("checkpoint succeeded despite exhausted retries")
		}
		if st.Stats().RetryExhausted == 0 {
			t.Fatal("RetryExhausted not counted")
		}
		if _, err := st.Checkpoint(MachineSource{m}); !errors.Is(err, ErrStoreFailed) {
			t.Fatalf("poisoned store: err = %v, want ErrStoreFailed", err)
		}
	})

	t.Run("exhaustion-record-policy", func(t *testing.T) {
		dir := t.TempDir()
		ffs := NewFaultFS(nil)
		m := newMachine(t, cfg)
		st := openStore(t, Options{Dir: dir, FS: ffs, Retry: RetryPolicy{Attempts: 2, BaseDelay: 1, MaxDelay: 1}, Policy: "record"})
		writeN(t, m, rand.New(rand.NewSource(1)), 16)
		ffs.FailTransient(100)
		if _, err := st.Checkpoint(MachineSource{m}); err == nil {
			t.Fatal("checkpoint succeeded despite exhausted retries")
		}
		ffs.FailTransient(-100) // drain the queue the failed run left
		if _, err := st.Checkpoint(MachineSource{m}); err != nil {
			t.Fatalf("record policy must allow the next checkpoint: %v", err)
		}
		if st.Stats().CheckpointFails != 1 || st.Stats().Checkpoints != 1 {
			t.Fatalf("stats = %+v", st.Stats())
		}
	})
}

func TestPersistRejectsUnsupportedConfigs(t *testing.T) {
	base := testConfig(core.SchemeBase, "full")
	base.Scheme = core.SchemeBase
	m := newMachine(t, base)
	if _, _, err := m.SaveState(); err == nil {
		t.Fatal("base scheme must not persist")
	}
	timing := testConfig(core.SchemeCached, "timing")
	mt := newMachine(t, timing)
	if _, _, err := mt.SaveState(); err == nil {
		t.Fatal("timing hash mode must not persist")
	}
}

func TestWALRecordRoundtrip(t *testing.T) {
	rec := walRecord{Type: recCommit, Epoch: 77, Fingerprint: 0xdeadbeef, Shards: 4}
	copy(rec.RootDigest[:], bytes.Repeat([]byte{0xab}, 16))
	got, err := decodeWALRecord(rec.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != rec {
		t.Fatalf("roundtrip mismatch: %+v != %+v", got, rec)
	}
	buf := rec.encode()
	buf[10] ^= 1
	if _, err := decodeWALRecord(buf); err == nil {
		t.Fatal("corrupt record decoded")
	}
}

// encodeSegment is the segment as writeTo puts it in a file.
func encodeSegment(t testing.TB, s *segment) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.writeTo(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != s.size() {
		t.Fatalf("segment wrote %d bytes, size() says %d", buf.Len(), s.size())
	}
	return buf.Bytes()
}

func TestSegmentRoundtrip(t *testing.T) {
	s := &segment{Epoch: 3, Shard: 1, Fingerprint: 42, Root: []byte{1, 2, 3, 4}, Image: bytes.Repeat([]byte{9}, 512)}
	got, err := decodeSegment(encodeSegment(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 3 || got.Shard != 1 || got.Fingerprint != 42 ||
		!bytes.Equal(got.Root, s.Root) || !bytes.Equal(got.Image, s.Image) {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
	// Every truncation and every single-bit flip is refused: the 8-byte
	// trailer is compared whole, its zero upper half included.
	enc := encodeSegment(t, s)
	for n := 0; n < len(enc); n++ {
		if _, err := decodeSegment(enc[:n]); err == nil {
			t.Fatalf("segment truncated to %d of %d bytes decoded", n, len(enc))
		}
	}
	for bit := 0; bit < 8*len(enc); bit++ {
		enc[bit/8] ^= 1 << (bit % 8)
		if _, err := decodeSegment(enc); err == nil {
			t.Fatalf("segment with bit %d flipped decoded", bit)
		}
		enc[bit/8] ^= 1 << (bit % 8)
	}
}
