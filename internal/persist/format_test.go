package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
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

// forgeImageByte flips the byte at region address addr of shard's state
// at epoch, where that byte lives on disk — the newest link of the chain
// that carries its line, the base if no delta does — and recomputes that
// file's checksum: the forgery every crash-consistency check accepts. cfg
// is the shard machine's configuration. It returns the kind of link it
// forged.
func forgeImageByte(t *testing.T, dir string, epoch uint64, shard int, cfg core.Config, addr uint64) string {
	t.Helper()
	start, _, err := core.StateExtent(cfg)
	if err != nil || addr < start {
		t.Fatalf("address %d is outside the persisted extent, which starts at %d (%v)", addr, start, err)
	}
	off := addr - start
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
		return seg.kind()
	}
}

// TestRecoveryVerifiesWholeDataRegion is the regression for the sweep that
// started at ProgAddr(0): for every persisted scheme, a forged byte
// anywhere in the data region — the code region below the program's data
// included — must fail recovery as one violation, whether the byte is in
// the chain's base or in a delta over it. The violation is at chunk 0:
// the root rebuilt from the forged data is not the sealed one.
func TestRecoveryVerifiesWholeDataRegion(t *testing.T) {
	// Each spot is a region address, given the machine's layout and the
	// directory the two epochs were sealed in.
	spots := []struct {
		name    string
		schemes []core.Scheme
		addr    func(t *testing.T, m *core.Machine, dir string) uint64
	}{
		{"code-region", treeSchemes, func(_ *testing.T, m *core.Machine, _ string) uint64 { return m.Layout.DataStart() + 10 }},
		{"program-data", treeSchemes, func(_ *testing.T, m *core.Machine, _ string) uint64 { return m.ProgAddr(100) }},
		{"last-byte", treeSchemes, func(_ *testing.T, m *core.Machine, _ string) uint64 { return m.Layout.Size() - 1 }},
		// The first line the second epoch's delta carries.
		{"rewritten", treeSchemes, func(t *testing.T, m *core.Machine, dir string) uint64 {
			buf, err := os.ReadFile(filepath.Join(dir, segName(2, 0)))
			if err != nil {
				t.Fatal(err)
			}
			seg, err := decodeSegment(buf)
			if err != nil || !seg.Delta || len(seg.Runs) == 0 {
				t.Fatalf("the second epoch wrote no delta line (%v)", err)
			}
			start, _, _ := core.StateExtent(m.Cfg)
			return start + uint64(seg.Runs[0].Line)*mem.LineSize + 5
		}},
	}
	kinds := map[core.Scheme]map[string]bool{}
	for _, spot := range spots {
		t.Run(spot.name, func(t *testing.T) {
			for _, scheme := range spot.schemes {
				t.Run(string(scheme), func(t *testing.T) {
					cfg := testConfig(scheme)
					dir := t.TempDir()
					_, m := checkpointEpochs(t, dir, cfg, 2)
					addr := spot.addr(t, m, dir)
					forged := forgeImageByte(t, dir, 2, 0, cfg, addr)
					if kinds[scheme] == nil {
						kinds[scheme] = map[string]bool{}
					}
					kinds[scheme][forged] = true
					r, rec, err := RecoverMachine(Options{Dir: dir}, cfg)
					if err != nil {
						t.Fatalf("RecoverMachine: %v", err)
					}
					if rec.Outcome != OutcomeViolation || rec.Violations != 1 {
						t.Fatalf("forged byte at %d (in a %s): outcome %s with %d violations, want one violation",
							addr, forged, rec.Outcome, rec.Violations)
					}
					if v := r.Sys.First; v.Chunk != 0 {
						t.Fatalf("violation at chunk %d, want the root's, chunk 0", v.Chunk)
					}
				})
			}
		})
	}
	for scheme, k := range kinds {
		if !k["base"] || !k["delta"] {
			t.Errorf("%s: forged only in %v, want a base and a delta", scheme, k)
		}
	}
}

// treeSchemes is every persisted scheme: naive, c and m, whose trees are
// derived from their data.
var treeSchemes = []core.Scheme{core.SchemeNaive, core.SchemeCached, core.SchemeMulti}

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
	var per core.Config
	s.WithShard(1, func(m *core.Machine) { dataStart, per = m.Layout.DataStart(), m.Cfg })
	forgeImageByte(t, dir, 1, 1, per, dataStart+10)
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
		forgeImageByte(t, dir, 2, 0, cfg, m.ProgAddr(100))
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
		var per core.Config
		s.WithShard(0, func(m *core.Machine) { at, per = m.ProgAddr(100), m.Cfg })
		forgeImageByte(t, dir, 1, 0, per, at)
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

// TestBaseSegmentBytesUnchanged pins format 2's base to its bytes: a
// small segment whole, and the first checkpoint of a seeded machine per
// scheme by length and FNV-1a: a header and the data region.
func TestBaseSegmentBytesUnchanged(t *testing.T) {
	small := &segment{Epoch: 3, Shard: 1, Fingerprint: 42, Root: []byte{1, 2, 3, 4}, Image: []byte("sixteen byte img")}
	const want = "4d5642320300000000000000010000002a0000000000000004000000010203041000000000000000" +
		"7369787465656e206279746520696d679f39e39800000000"
	if got := hex.EncodeToString(encodeSegment(t, small)); got != want {
		t.Fatalf("base segment bytes\n got %s\nwant %s", got, want)
	}
	for _, g := range []struct {
		scheme core.Scheme
		size   int
		sum    uint64
	}{
		{core.SchemeNaive, 16444, 0xa61d647bb7ec8a3f},
		{core.SchemeCached, 16444, 0x3ce4b21d964632d1},
		{core.SchemeMulti, 16444, 0xa98aaa4c865a2550},
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
			t.Errorf("scheme %s: first base is %d bytes, FNV-1a %#x; format 2 wrote %d, %#x",
				g.scheme, len(buf), h.Sum64(), g.size, g.sum)
		}
	}
}

// TestSegmentCarriesTheExtent: what a segment carries is the machine's
// persisted extent — Size()−DataStart() bytes, the interior being rebuilt
// from the data — and a store's bytes written follow it.
func TestSegmentCarriesTheExtent(t *testing.T) {
	for _, scheme := range treeSchemes {
		t.Run(string(scheme), func(t *testing.T) {
			cfg := testConfig(scheme)
			dir := t.TempDir()
			_, m := checkpointEpochs(t, dir, cfg, 1)
			want := m.Layout.Size() - m.Layout.DataStart()
			buf, err := os.ReadFile(filepath.Join(dir, segName(1, 0)))
			if err != nil {
				t.Fatal(err)
			}
			img, err := SegmentImage(buf)
			if err != nil {
				t.Fatal(err)
			}
			if uint64(len(img)) != want || m.StateSize() != want {
				t.Fatalf("the base carries %d bytes, StateSize %d; want %d", len(img), m.StateSize(), want)
			}
			if start, end, err := core.StateExtent(cfg); err != nil || end-start != want {
				t.Fatalf("StateExtent [%d, %d) (%v), want %d bytes", start, end, err, want)
			}
		})
	}
}

// TestOtherFormatsRefused: a directory this build cannot read is refused
// loudly — a *FormatError from RecoverMachine, RecoverStore and Recover,
// no machine built, never a violation — whether its segments are format 1
// (the whole image under the old magics) or carry an extent of the wrong
// length (a whole image for c), in a base or in a delta.
func TestOtherFormatsRefused(t *testing.T) {
	// rewrite re-encodes segment e of dir through f and recomputes its
	// checksum.
	rewrite := func(t *testing.T, dir string, e uint64, f func(seg *segment, buf []byte) []byte) {
		t.Helper()
		name := filepath.Join(dir, segName(e, 0))
		buf, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		seg, err := decodeSegment(buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = f(seg, buf)
		binary.LittleEndian.PutUint64(buf[len(buf)-8:], Checksum64(buf[:len(buf)-8]))
		if err := os.WriteFile(name, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	format1 := func(seg *segment, buf []byte) []byte {
		copy(buf, v1Magics[0][:])
		if seg.Delta {
			copy(buf, v1Magics[1][:])
		}
		return buf
	}
	// resized is the base with its extent grown or cut to n bytes.
	resized := func(n uint64) func(seg *segment, buf []byte) []byte {
		return func(seg *segment, _ []byte) []byte {
			img := make([]byte, n)
			copy(img, seg.Image)
			seg.Image = img
			var out bytes.Buffer
			if err := seg.writeTo(&out, nil); err != nil {
				t.Fatal(err)
			}
			return out.Bytes()
		}
	}
	for _, tc := range []struct {
		name   string
		scheme core.Scheme
		epoch  uint64 // the segment rewritten: 1 the base, 2 the delta
		edit   func(l core.Config) func(seg *segment, buf []byte) []byte
	}{
		{"format-1-base", core.SchemeCached, 1, func(core.Config) func(*segment, []byte) []byte { return format1 }},
		{"format-1-delta", core.SchemeCached, 2, func(core.Config) func(*segment, []byte) []byte { return format1 }},
		{"whole-image-for-c", core.SchemeCached, 1, func(cfg core.Config) func(*segment, []byte) []byte {
			_, end, _ := core.StateExtent(cfg)
			return resized(end)
		}},
		{"delta-over-another-extent", core.SchemeMulti, 2, func(core.Config) func(*segment, []byte) []byte {
			return func(seg *segment, buf []byte) []byte {
				binary.LittleEndian.PutUint64(buf[segFixed+len(seg.Root)+8:], seg.ImageSize+4096)
				return buf
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(tc.scheme)
			dir := t.TempDir()
			checkpointEpochs(t, dir, cfg, 2)
			if buf, _ := os.ReadFile(filepath.Join(dir, segName(2, 0))); [4]byte(buf[:4]) != deltaMagic {
				t.Fatal("the second epoch is not a delta")
			}
			rewrite(t, dir, tc.epoch, tc.edit(cfg))
			var fe *FormatError
			if m, rec, err := RecoverMachine(Options{Dir: dir}, cfg); !errors.As(err, &fe) || m != nil || rec != nil {
				t.Fatalf("RecoverMachine: %v (machine %v, recovery %+v), want a FormatError and nothing built", err, m != nil, rec)
			}
			if fe.Epoch == 0 || fe.Shard != 0 {
				t.Fatalf("FormatError %+v names no segment", fe)
			}
			scfg := shard.Config{Machine: cfg, Shards: 1}
			if s, rec, err := RecoverStore(Options{Dir: dir}, scfg); !errors.As(err, &fe) || s != nil || rec != nil {
				t.Fatalf("RecoverStore: %v, want a FormatError and nothing built", err)
			}
			if rec, err := Recover(Options{Dir: dir}, cfg, 1); !errors.As(err, &fe) || rec != nil && rec.Outcome == OutcomeViolation {
				t.Fatalf("Recover: %v / %+v, want a FormatError", err, rec)
			}
		})
	}
}

// TestRecoveredStateIsTheCheckpointedState: after recovery from a chain
// of a base and dirty deltas, a naive, c or m machine's whole memory image
// — the interior its construction rebuilt included — is byte for byte the
// image the checkpointed machine held, under the same root.
func TestRecoveredStateIsTheCheckpointedState(t *testing.T) {
	for _, scheme := range []core.Scheme{core.SchemeNaive, core.SchemeCached, core.SchemeMulti} {
		t.Run(string(scheme), func(t *testing.T) {
			cfg := testConfig(scheme)
			dir := t.TempDir()
			m := newMachine(t, cfg)
			st := openStore(t, Options{Dir: dir, Retry: fastRetry})
			rng := rand.New(rand.NewSource(int64(len(scheme))))
			for round := 0; round < 4; round++ {
				writeN(t, m, rng, 8)
				if _, err := st.Checkpoint(MachineSource{m}); err != nil {
					t.Fatal(err)
				}
			}
			if s := st.Stats(); s.BaseSegments != 1 || s.DeltaSegments != 3 {
				t.Fatalf("want a base and three deltas, wrote %+v", s)
			}
			r, rec, err := RecoverMachine(Options{Dir: dir}, cfg)
			if err != nil || rec.Outcome != OutcomeClean {
				t.Fatalf("recovery: %v / %+v", err, rec)
			}
			if want, got := wholeImage(t, m), wholeImage(t, r); !bytes.Equal(got, want) {
				t.Fatal("the recovered memory image is not the checkpointed one")
			}
			if !bytes.Equal(r.Root(), m.Root()) {
				t.Fatal("the recovered root is not the checkpointed one")
			}
		})
	}
}

// wholeImage reads m's whole protected region from its external memory,
// below any adversary: the bytes a recovered machine was built from.
func wholeImage(t *testing.T, m *core.Machine) []byte {
	t.Helper()
	m.Flush()
	img := make([]byte, m.Layout.Size())
	adv := m.Adversary()
	adv.Read(0, img)
	return img
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

// benchConfig is the benchmarks' tenant machine: c over 8 MiB.
func benchConfig() core.Config {
	cfg := testConfig(core.SchemeCached)
	cfg.ProtectedBytes = 8 << 20
	cfg.L2Size = 256 << 10
	cfg.Benchmark = trace.Uniform("bench", 32<<10)
	cfg.Benchmark.CodeSet = 4 << 10
	return cfg
}

// BenchmarkCheckpoint seals one epoch of an 8 MiB machine whose every line
// was rewritten since the last, per iteration: a base. MB/s is over the
// persisted extent (SetBytes); B/op is one extent's view, streamed into
// the file as it lies.
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
// checksummed, machine built from the state and checked against the
// sealed root (the tree rebuilt from the data) — from a lone base, and
// from a chain whose deltas have all but used up what a chain may hold,
// the most recovery ever reads. MB/s is over the persisted extent.
func BenchmarkRecoverMachine(b *testing.B) {
	for _, leg := range []string{"base", "longest-chain"} {
		b.Run(leg, func(b *testing.B) { benchRecoverMachine(b, leg, benchConfig()) })
	}
}

func benchRecoverMachine(b *testing.B, leg string, cfg core.Config) {
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
		// Deltas of about an eighth of the extent each, until the next
		// one would not fit and a base would close the chain.
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
	// extents by construction.
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
	b.SetBytes(int64(m.StateSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, rec, err := RecoverMachine(opts, cfg); err != nil || rec.Outcome != OutcomeClean {
			b.Fatalf("recovery: %v / %+v", err, rec)
		}
	}
	b.ReportMetric(float64(len(names)), "segments")
	b.ReportMetric(float64(onDisk), "disk-B")
}

// BenchmarkRecoverStore is the service's recovery path over the same
// 8 MiB, split across two shards: both segments read and checksummed, and
// a machine built from each and checked against its sealed root
// (shard.NewFromState) before the store is handed back. MB/s is over the
// shards' persisted extents.
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
	var extent int64
	for i := 0; i < scfg.Shards; i++ {
		s.WithShard(i, func(m *core.Machine) { extent += int64(m.StateSize()) })
	}
	s.Close()
	b.SetBytes(extent)
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
