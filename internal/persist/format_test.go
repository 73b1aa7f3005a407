package persist

import (
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"memverify/internal/core"
	"memverify/internal/mem"
	"memverify/internal/shard"
	"memverify/internal/trace"
)

// forgeImageByte flips the byte at image offset off of shard's state at
// epoch, where that byte lives on disk — the newest link of the chain
// that carries its line, the base if no delta does — and recomputes that
// file's checksum: the forgery every crash-consistency check accepts.
func forgeImageByte(t *testing.T, dir string, epoch uint64, shard int, off uint64) {
	t.Helper()
	for {
		name := filepath.Join(dir, segName(epoch, shard))
		buf, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		seg, err := decodeSegment(buf)
		if err != nil {
			t.Fatal(err)
		}
		target := seg.Image
		at := off
		if seg.Delta {
			target, at = nil, 0
			for _, r := range seg.Runs {
				lo, n := uint64(r.Line)*mem.LineSize, uint64(r.Count)*mem.LineSize
				if off >= lo && off < lo+n {
					target, at = seg.Lines, at+off-lo
					break
				}
				at += n
			}
			if target == nil {
				epoch = seg.Prev
				continue
			}
		}
		target[at] ^= 0x01
		binary.LittleEndian.PutUint64(buf[len(buf)-8:], Checksum64(buf[:len(buf)-8]))
		if err := os.WriteFile(name, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
}

// TestRecoveryVerifiesWholeDataRegion is the regression for the sweep that
// started at ProgAddr(0): a forged byte anywhere in the data region — the
// code region below the program's data included — or in an interior tree
// chunk must fail recovery's engine pass, whether the byte is in the
// chain's base or in a delta over it.
func TestRecoveryVerifiesWholeDataRegion(t *testing.T) {
	cfg := testConfig(core.SchemeCached)
	probe := newMachine(t, cfg)
	spots := map[string]uint64{
		"code-region":   probe.Layout.DataStart() + 10,
		"program-data":  probe.ProgAddr(100),
		"last-byte":     probe.Layout.Size() - 1,
		"interior-node": probe.Layout.DataStart() / 2,
	}
	for name, off := range spots {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			checkpointEpochs(t, dir, cfg, 2)
			forgeImageByte(t, dir, 2, 0, off)
			_, rec, err := RecoverMachine(Options{Dir: dir}, cfg)
			if err != nil {
				t.Fatalf("RecoverMachine: %v", err)
			}
			if rec.Outcome != OutcomeViolation || rec.Violations == 0 {
				t.Fatalf("forged byte at image offset %d: outcome %s with %d violations, want violation",
					off, rec.Outcome, rec.Violations)
			}
		})
	}
}

// TestRecoverStoreVerifiesCodeRegion is the same forgery on the sharded
// path: one shard's code region is forged, that shard alone is refused.
func TestRecoverStoreVerifiesCodeRegion(t *testing.T) {
	scfg := shard.Config{Machine: testConfig(core.SchemeCached), Shards: 2}
	scfg.Machine.ProtectedBytes = 32 << 10
	dir := t.TempDir()
	s, err := shard.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.StoreBytes(100, []byte("sealed")); err != nil {
		t.Fatal(err)
	}
	st := openStore(t, Options{Dir: dir, Retry: fastRetry})
	if _, err := st.Checkpoint(StoreSource{s}); err != nil {
		t.Fatal(err)
	}
	var dataStart uint64
	s.WithShard(1, func(m *core.Machine) { dataStart = m.Layout.DataStart() })
	forgeImageByte(t, dir, 1, 1, dataStart+10)
	r, rec, err := RecoverStore(Options{Dir: dir}, scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if rec.Outcome != OutcomeViolation {
		t.Fatalf("outcome %s, want violation", rec.Outcome)
	}
	if vs := r.Violations(); len(vs) == 0 || vs[0].Shard != 1 {
		t.Fatalf("violations %+v, want shard 1's", vs)
	}
}

// TestDetectedRecoveryRestoresNoRoots pins Recovery.Roots to its contract
// on a forged image: the engine check refuses it, nothing is restored, and
// neither constructor reports roots for it.
func TestDetectedRecoveryRestoresNoRoots(t *testing.T) {
	cfg := testConfig(core.SchemeCached)
	t.Run("machine", func(t *testing.T) {
		dir := t.TempDir()
		_, m := checkpointEpochs(t, dir, cfg, 2)
		forgeImageByte(t, dir, 2, 0, m.ProgAddr(100))
		_, rec, err := RecoverMachine(Options{Dir: dir}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Outcome != OutcomeViolation || rec.Roots != nil {
			t.Fatalf("outcome %s with roots %x, want a violation and no roots", rec.Outcome, rec.Roots)
		}
	})
	t.Run("store", func(t *testing.T) {
		scfg := shard.Config{Machine: cfg, Shards: 2}
		scfg.Machine.ProtectedBytes = 32 << 10
		dir := t.TempDir()
		s, err := shard.New(scfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		st := openStore(t, Options{Dir: dir, Retry: fastRetry})
		if _, err := st.Checkpoint(StoreSource{s}); err != nil {
			t.Fatal(err)
		}
		var at uint64
		s.WithShard(0, func(m *core.Machine) { at = m.ProgAddr(100) })
		forgeImageByte(t, dir, 1, 0, at)
		r, rec, err := RecoverStore(Options{Dir: dir}, scfg)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if rec.Outcome != OutcomeViolation || rec.Roots != nil {
			t.Fatalf("outcome %s with roots %x, want a violation and no roots", rec.Outcome, rec.Roots)
		}
	})
}

// TestSegmentTearAtEveryWrite kills the second checkpoint inside each of
// its segment's writes — a base's header, image and trailer, a delta's
// header, run table, line bytes and trailer — and at its sync: every torn
// prefix must classify as a crash and roll back to epoch 1.
func TestSegmentTearAtEveryWrite(t *testing.T) {
	cfg := testConfig(core.SchemeCached)
	for _, kind := range []struct {
		name   string
		stores int // in the second epoch: few make a delta, many a base
		writes int // the segment file's writes
	}{{"base", 400, 3}, {"delta", 16, 4}} {
		rules := []KillRule{{Stage: StageSegSync}}
		for w := 0; w < kind.writes; w++ {
			rules = append(rules, KillRule{Stage: StageSegWrite, After: w})
		}
		for _, rule := range rules {
			dir := t.TempDir()
			ffs := NewFaultFS(nil)
			m := newMachine(t, cfg)
			rng := rand.New(rand.NewSource(5))
			st := openStore(t, Options{Dir: dir, FS: ffs, Retry: fastRetry})
			writeN(t, m, rng, 16)
			if _, err := st.Checkpoint(MachineSource{m}); err != nil {
				t.Fatal(err)
			}
			want := m.Root()
			ffs.Kill(rule)
			writeN(t, m, rng, kind.stores)
			if _, err := st.Checkpoint(MachineSource{m}); err == nil || !ffs.Killed() {
				t.Fatalf("%s %+v: checkpoint survived its kill point (%v)", kind.name, rule, err)
			}
			r, rec, err := RecoverMachine(Options{Dir: dir}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// A kill at the sync leaves the whole segment in the file: both
			// resolutions are honest then. A kill inside a write cannot.
			torn := rule.Stage == StageSegWrite
			if rec.Outcome != OutcomeTorn || (torn && (rec.Epoch != 1 || rec.RolledForward)) {
				t.Fatalf("%s %+v: outcome %s epoch %d forward=%v (%s), want torn", kind.name, rule, rec.Outcome, rec.Epoch, rec.RolledForward, rec.Detail)
			}
			if torn && string(r.Root()) != string(want) {
				t.Fatalf("%s %+v: rolled back to a root that is not epoch 1's", kind.name, rule)
			}
			// What the kill left of the segment says which kind it was.
			if buf, err := os.ReadFile(filepath.Join(dir, segName(2, 0))); err == nil && len(buf) >= 4 {
				if got := [4]byte(buf[:4]) == deltaMagic; got != (kind.name == "delta") {
					t.Fatalf("%s %+v: the killed checkpoint was writing delta=%v", kind.name, rule, got)
				}
			}
		}
	}
}

// TestBaseSegmentBytesUnchanged pins the base format to the bytes the
// store wrote before deltas existed: a small segment whole, and the first
// checkpoint of a seeded machine per scheme by length and FNV-1a.
func TestBaseSegmentBytesUnchanged(t *testing.T) {
	small := &segment{Epoch: 3, Shard: 1, Fingerprint: 42, Root: []byte{1, 2, 3, 4}, Image: []byte("sixteen byte img")}
	const want = "4d5653470300000000000000010000002a0000000000000004000000010203041000000000000000" +
		"7369787465656e206279746520696d67e05fcd8900000000"
	if got := hex.EncodeToString(encodeSegment(t, small)); got != want {
		t.Fatalf("base segment bytes\n got %s\nwant %s", got, want)
	}
	for _, g := range []struct {
		scheme core.Scheme
		size   int
		sum    uint64
	}{
		{core.SchemeNaive, 21884, 0xeb30e1a6beb3a5f5},
		{core.SchemeCached, 21884, 0xf0b1ea72bb676e52},
		{core.SchemeMulti, 18876, 0x91a29b899013887f},
		{core.SchemeIncr, 18876, 0xd47d8bfdd1c26209},
	} {
		dir := t.TempDir()
		m := newMachine(t, testConfig(g.scheme))
		writeN(t, m, rand.New(rand.NewSource(7)), 48)
		st := openStore(t, Options{Dir: dir, Retry: fastRetry})
		if _, err := st.Checkpoint(MachineSource{m}); err != nil {
			t.Fatal(err)
		}
		buf, err := os.ReadFile(filepath.Join(dir, segName(1, 0)))
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(buf)
		if len(buf) != g.size || h.Sum64() != g.sum {
			t.Errorf("scheme %s: first base is %d bytes, FNV-1a %#x; the format before deltas wrote %d, %#x",
				g.scheme, len(buf), h.Sum64(), g.size, g.sum)
		}
	}
}

// TestOldFormatRefused re-stamps a committed directory with the FNV-1a
// checksums of the previous on-disk format: recovery must refuse it, not
// read it as a crash.
func TestOldFormatRefused(t *testing.T) {
	cfg := testConfig(core.SchemeCached)
	dir := t.TempDir()
	checkpointEpochs(t, dir, cfg, 2)
	fnv64 := func(p []byte) uint64 {
		h := fnv.New64a()
		h.Write(p)
		return h.Sum64()
	}
	restamp := func(name string, recordSize int) {
		buf, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if recordSize == 0 {
			recordSize = len(buf)
		}
		for lo := 0; lo+recordSize <= len(buf); lo += recordSize {
			rec := buf[lo : lo+recordSize]
			binary.LittleEndian.PutUint64(rec[recordSize-8:], fnv64(rec[:recordSize-8]))
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	restamp(walName, walRecordSize)
	restamp(manifestName, 0)
	restamp(segName(2, 0), 0)
	rec, err := Recover(Options{Dir: dir}, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Outcome != OutcomeViolation {
		t.Fatalf("old-format directory: outcome %s (%s), want violation", rec.Outcome, rec.Detail)
	}
}

// benchConfig is the benchmark's tenant machine: scheme c over 8 MiB.
func benchConfig() core.Config {
	cfg := testConfig(core.SchemeCached)
	cfg.ProtectedBytes = 8 << 20
	cfg.L2Size = 256 << 10
	cfg.Benchmark = trace.Uniform("bench", 32<<10)
	cfg.Benchmark.CodeSet = 4 << 10
	return cfg
}

// BenchmarkCheckpoint seals one epoch of an 8 MiB machine whose every line
// was rewritten since the last, per iteration: a base. B/op is one image —
// the snapshot, written to the file as it lies.
func BenchmarkCheckpoint(b *testing.B) {
	m, err := core.NewMachine(benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	st, err := Open(Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	img, root, err := m.SaveState()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(m.StateSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := m.RestoreState(img, root); err != nil { // dirties every line
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := st.Checkpoint(MachineSource{m}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if s := st.Stats(); s.DeltaSegments != 0 {
		b.Fatalf("an all-dirty epoch was written as a delta: %+v", s)
	}
}

// rewriteLines stores one byte to each of n distinct 64-byte lines of m's
// program data, evenly spread and starting at a line that moves with
// round. With their paths of the tree, that dirties some 3 n lines.
func rewriteLines(b *testing.B, m *core.Machine, n, round int) {
	b.Helper()
	lines := int(m.ProgSpan() / mem.LineSize)
	for k := 0; k < n; k++ {
		line := (round*7 + k*(lines/n)) % lines
		if err := m.StoreBytes(uint64(line)*mem.LineSize, []byte{byte(round)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointDelta seals one epoch of the same machine after about
// 1.5 % of its lines were rewritten — the share the benchmark's svc-hot
// dirties per shard per epoch. MB/s is over the bytes persisted, so it
// compares with BenchmarkCheckpoint's; the win is in ns/op and B/op.
func BenchmarkCheckpointDelta(b *testing.B) {
	m, err := core.NewMachine(benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	st, err := Open(Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Checkpoint(MachineSource{m}); err != nil {
		b.Fatal(err)
	}
	dirty := int(m.StateSize()/mem.LineSize) * 15 / 1000
	start := st.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rewriteLines(b, m, dirty/3, i) // the tree's lines are the rest
		b.StartTimer()
		if _, err := st.Checkpoint(MachineSource{m}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	end := st.Stats()
	if end.DeltaSegments == start.DeltaSegments {
		b.Fatalf("no epoch was written as a delta: %+v", end)
	}
	b.SetBytes(int64(end.BytesWritten-start.BytesWritten) / int64(b.N))
	b.ReportMetric(float64(end.DeltaSegments-start.DeltaSegments)/float64(b.N), "deltas/op")
}

// BenchmarkRecoverMachine recovers that machine: segments read and
// checksummed, machine built from the image, the whole image checked
// against the sealed root in one bottom-up pass — from a lone base, and
// from a chain whose deltas have all but used up what a chain may hold,
// the most recovery ever reads.
func BenchmarkRecoverMachine(b *testing.B) {
	cfg := benchConfig()
	for _, leg := range []string{"base", "longest-chain"} {
		b.Run(leg, func(b *testing.B) {
			m, err := core.NewMachine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			opts := Options{Dir: b.TempDir()}
			st, err := Open(opts)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := st.Checkpoint(MachineSource{m}); err != nil {
				b.Fatal(err)
			}
			if leg == "longest-chain" {
				// Deltas of about an eighth of the image each, until the
				// next one would not fit and a base would close the chain.
				data := int(m.StateSize()/mem.LineSize) / 30
				for round := 1; ; round++ {
					if _, maxLines := st.chains[0].next(m.StateSize(), m.Layout.HashSize); maxLines < 4*data {
						break
					}
					rewriteLines(b, m, data, round)
					if _, err := st.Checkpoint(MachineSource{m}); err != nil {
						b.Fatal(err)
					}
				}
				if s := st.Stats(); s.BaseSegments != 1 || s.DeltaSegments < 5 {
					b.Fatalf("chain did not build: %+v", s)
				}
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			// What recovery reads is the chain, and a chain is at most two
			// images by construction.
			names, err := listSegments(OS{}, opts.Dir)
			if err != nil {
				b.Fatal(err)
			}
			var onDisk, baseSize int64
			for _, name := range names {
				info, err := os.Stat(filepath.Join(opts.Dir, name))
				if err != nil {
					b.Fatal(err)
				}
				onDisk += info.Size()
				baseSize = max(baseSize, info.Size())
			}
			if onDisk > 2*baseSize {
				b.Fatalf("chain of %d segments holds %d bytes, more than twice its %d-byte base", len(names), onDisk, baseSize)
			}
			b.SetBytes(onDisk)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, rec, err := RecoverMachine(opts, cfg); err != nil || rec.Outcome != OutcomeClean {
					b.Fatalf("recovery: %v / %+v", err, rec)
				}
			}
			b.ReportMetric(float64(len(names)), "segments")
		})
	}
}

// BenchmarkRecoverStore is the service's recovery path over the same
// 8 MiB, split across two shards: both segments read and checksummed, a
// machine built from each, and every shard's image checked against its
// sealed root (Store.VerifyImage) before the store is handed back.
func BenchmarkRecoverStore(b *testing.B) {
	scfg := shard.Config{Machine: benchConfig(), Shards: 2}
	s, err := shard.New(scfg)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Dir: b.TempDir()}
	st, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.Checkpoint(StoreSource{s}); err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	s.Close()
	b.SetBytes(int64(scfg.Machine.ProtectedBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, rec, err := RecoverStore(opts, scfg)
		if err != nil || rec.Outcome != OutcomeClean {
			b.Fatalf("recovery: %v / %+v", err, rec)
		}
		b.StopTimer()
		r.Close()
		b.StartTimer()
	}
}
