package persist

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"memverify/internal/core"
	"memverify/internal/shard"
	"memverify/internal/trace"
)

// forgeSegmentByte flips one byte of the image inside a committed segment
// file, at image offset off, and recomputes the file's checksum — the
// forgery every crash-consistency check accepts.
func forgeSegmentByte(t *testing.T, name string, off uint64) {
	t.Helper()
	buf, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	img, err := SegmentImage(buf)
	if err != nil {
		t.Fatal(err)
	}
	img[off] ^= 0x01
	binary.LittleEndian.PutUint64(buf[len(buf)-8:], Checksum64(buf[:len(buf)-8]))
	if err := os.WriteFile(name, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryVerifiesWholeDataRegion is the regression for the sweep that
// started at ProgAddr(0): a forged byte anywhere in the data region — the
// code region below the program's data included — or in an interior tree
// chunk must fail recovery's engine pass.
func TestRecoveryVerifiesWholeDataRegion(t *testing.T) {
	cfg := testConfig(core.SchemeCached, "full")
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
			forgeSegmentByte(t, filepath.Join(dir, segName(2, 0)), off)
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
	scfg := shard.Config{Machine: testConfig(core.SchemeCached, "full"), Shards: 2}
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
	forgeSegmentByte(t, filepath.Join(dir, segName(1, 1)), dataStart+10)
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

// TestSegmentTearAtEveryWrite kills the second checkpoint inside each of a
// segment's three writes — header, image, trailer — and at its sync: every
// torn prefix must classify as a crash and roll back to epoch 1.
func TestSegmentTearAtEveryWrite(t *testing.T) {
	cfg := testConfig(core.SchemeCached, "full")
	for _, rule := range []KillRule{
		{Stage: StageSegWrite, After: 0},
		{Stage: StageSegWrite, After: 1},
		{Stage: StageSegWrite, After: 2},
		{Stage: StageSegSync},
	} {
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
		writeN(t, m, rng, 16)
		if _, err := st.Checkpoint(MachineSource{m}); err == nil || !ffs.Killed() {
			t.Fatalf("%+v: checkpoint survived its kill point (%v)", rule, err)
		}
		r, rec, err := RecoverMachine(Options{Dir: dir}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// A kill at the sync leaves the whole segment in the file: both
		// resolutions are honest then. A kill inside a write cannot.
		torn := rule.Stage == StageSegWrite
		if rec.Outcome != OutcomeTorn || (torn && (rec.Epoch != 1 || rec.RolledForward)) {
			t.Fatalf("%+v: outcome %s epoch %d forward=%v (%s), want torn", rule, rec.Outcome, rec.Epoch, rec.RolledForward, rec.Detail)
		}
		if torn && string(r.Root()) != string(want) {
			t.Fatalf("%+v: rolled back to a root that is not epoch 1's", rule)
		}
	}
}

// TestOldFormatRefused re-stamps a committed directory with the FNV-1a
// checksums of the previous on-disk format: recovery must refuse it, not
// read it as a crash.
func TestOldFormatRefused(t *testing.T) {
	cfg := testConfig(core.SchemeCached, "full")
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
	cfg := testConfig(core.SchemeCached, "full")
	cfg.ProtectedBytes = 8 << 20
	cfg.L2Size = 256 << 10
	cfg.Benchmark = trace.Uniform("bench", 32<<10)
	cfg.Benchmark.CodeSet = 4 << 10
	return cfg
}

// BenchmarkCheckpoint seals one epoch of an 8 MiB machine per iteration.
// B/op is one image: SaveState's snapshot, written to the file as it lies.
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
	b.SetBytes(int64(m.StateSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Checkpoint(MachineSource{m}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoverMachine recovers that machine: segment read and
// checksummed, machine built from the image, every block re-verified.
func BenchmarkRecoverMachine(b *testing.B) {
	cfg := benchConfig()
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
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(m.StateSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, rec, err := RecoverMachine(opts, cfg); err != nil || rec.Outcome != OutcomeClean {
			b.Fatalf("recovery: %v / %+v", err, rec)
		}
	}
}
