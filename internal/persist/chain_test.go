package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"memverify/internal/core"
	"memverify/internal/mem"
	"memverify/internal/shard"
)

// chainRig is the subject of the chain property: one machine or a sharded
// store, reached shard by shard the way a checkpoint reaches it.
type chainRig struct{ Source }

func newChainRig(t *testing.T, cfg core.Config, shards int) chainRig {
	t.Helper()
	if shards == 1 {
		return chainRig{MachineSource{newMachine(t, cfg)}}
	}
	cfg.ProtectedBytes *= uint64(shards)
	s, err := shard.New(shard.Config{Machine: cfg, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return chainRig{StoreSource{s}}
}

// on runs f on shard i's machine.
func (r chainRig) on(t *testing.T, i int, f func(m *core.Machine) error) {
	t.Helper()
	if err := r.WithMachine(i, f); err != nil {
		t.Fatal(err)
	}
}

// TestChainIsTheImage is the invariant deltas rest on: after every
// committed epoch, whatever happened between checkpoints — stores, loads,
// an adversary writing to memory behind the engine's back, a RestoreState,
// an interleaved SaveState, a checkpoint that ran out of retries and the
// store reopened through recovery after it — each shard's chain, folded,
// holds byte for byte the extent SaveState returns, under the same root,
// and recovery takes it for what it is. The oracle
// is a twin that is given the same operations and never checkpoints. The
// legacyMode legs also require every committed epoch's directory to be
// refused, untouched, under a config naming the deleted mode.
func TestChainIsTheImage(t *testing.T) {
	for _, scheme := range []core.Scheme{core.SchemeNaive, core.SchemeCached, core.SchemeMulti} {
		for _, mode := range []string{"full", legacyMode} {
			for _, shards := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/%d-shard", scheme, mode, shards), func(t *testing.T) {
					chainProperty(t, scheme, mode, shards, int64(len(scheme)*100+len(mode)*10+shards))
				})
			}
		}
	}
}

func chainProperty(t *testing.T, scheme core.Scheme, mode string, shards int, seed int64) {
	cfg := testConfig(scheme)
	const epochs = 24
	rng := rand.New(rand.NewSource(seed))
	victim, twin := newChainRig(t, cfg, shards), newChainRig(t, cfg, shards)
	both := func(i int, f func(m *core.Machine) error) { victim.on(t, i, f); twin.on(t, i, f) }
	dir := t.TempDir()
	ffs := NewFaultFS(noSync{})
	opts := Options{Dir: dir, FS: ffs, Retry: fastRetry}
	st := openStore(t, opts)
	fp := Fingerprint(victim.MachineConfig(), shards)
	ext, err := extentOf(victim.MachineConfig())
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats // over every store the run opens
	reopen := func() {
		s := st.Stats()
		stats.BaseSegments += s.BaseSegments
		stats.DeltaSegments += s.DeltaSegments
		stats.CheckpointFails += s.CheckpointFails
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if rec, err := Recover(opts, victim.MachineConfig(), shards); err != nil || rec.Outcome == OutcomeViolation {
			t.Fatalf("recovering the directory a failed checkpoint left: %v / %+v", err, rec)
		}
		st = openStore(t, opts)
	}

	type state struct{ img, root []byte }
	history := make([][]state, shards) // the twin's snapshots, per shard
	saveTwin := func(i int) (s state) {
		twin.on(t, i, func(m *core.Machine) (err error) {
			s.img, s.root, err = m.SaveState()
			return err
		})
		return s
	}

	for committed := 0; committed < epochs; {
		// A round of traffic, heavy or light so that both kinds of segment
		// get written.
		ops := 1 + rng.Intn(12)
		if rng.Intn(4) == 0 {
			ops += 150
		}
		for ; ops > 0; ops-- {
			i := rng.Intn(shards)
			buf := make([]byte, 1+rng.Intn(200))
			var span uint64
			victim.on(t, i, func(m *core.Machine) error { span = m.ProgSpan(); return nil })
			off := rng.Uint64() % (span - uint64(len(buf)))
			if rng.Intn(3) == 0 {
				got := make([]byte, len(buf))
				victim.on(t, i, func(m *core.Machine) error { return m.LoadBytes(off, got) })
				twin.on(t, i, func(m *core.Machine) error { return m.LoadBytes(off, buf) })
				if !bytes.Equal(got, buf) {
					t.Fatalf("load at %d of shard %d differs from the twin's", off, i)
				}
			} else {
				rng.Read(buf)
				both(i, func(m *core.Machine) error { return m.StoreBytes(off, buf) })
			}
		}
		switch i := rng.Intn(shards); rng.Intn(8) {
		case 0:
			// Someone else takes a snapshot: the store's is no longer the
			// machine's latest.
			both(i, func(m *core.Machine) error { _, _, err := m.SaveState(); return err })
		case 1:
			if h := history[i]; len(h) > 0 {
				old := h[rng.Intn(len(h))]
				both(i, func(m *core.Machine) error { return m.RestoreState(old.img, old.root) })
			}
		}
		// The adversary flips a stored byte behind a quiesced machine and
		// the epoch is sealed over it: the flip must be in the chain as it
		// is in the image, and recovery must refuse the epoch. Flipped back
		// before anything reads it, it leaves no trace but a dirty line.
		tampered := -1
		var at uint64
		if rng.Intn(6) == 0 {
			tampered, at = rng.Intn(shards), rng.Uint64()
			both(tampered, func(m *core.Machine) error {
				m.Flush()
				m.Adversary().Corrupt(m.ProgAddr(at), 0x40)
				return nil
			})
		}

		// The checkpoint, which now and then runs out of retries somewhere
		// among its writes.
		if tampered < 0 && rng.Intn(4) == 0 {
			ffs.FailShort(rng.Intn(8), 100)
		}
		epoch, err := st.Checkpoint(victim)
		ffs.FailShort(0, 0)
		snaps := make([]state, shards)
		for i := range snaps {
			snaps[i] = saveTwin(i) // flushes the twin where the checkpoint flushed the victim
		}
		if err != nil {
			reopen() // the failure poisoned the store
			continue
		}
		committed++

		segs, err := loadSegments(OS{}, dir, epoch, fp, shards, ext)
		if err != nil {
			t.Fatalf("epoch %d: chain does not load: %v", epoch, err)
		}
		live := make([][]byte, shards)
		for i, seg := range segs {
			victim.on(t, i, func(m *core.Machine) error { live[i] = m.Root(); return nil })
			if !bytes.Equal(seg.Image[ext.start:], snaps[i].img) {
				t.Fatalf("epoch %d shard %d: the folded chain is not the extent SaveState returns", epoch, i)
			}
			if !bytes.Equal(seg.Root, snaps[i].root) || !bytes.Equal(seg.Root, live[i]) {
				t.Fatalf("epoch %d shard %d: chain root %x, SaveState root %x, live root %x", epoch, i, seg.Root, snaps[i].root, live[i])
			}
			history[i] = append(history[i], snaps[i])
		}

		recoverAs := func(cfg core.Config) (rec *Recovery, err error) {
			if shards == 1 {
				_, rec, err = RecoverMachine(Options{Dir: dir}, cfg)
				return rec, err
			}
			var rs *shard.Store
			scfg := shard.Config{Machine: cfg, Shards: shards}
			scfg.Machine.ProtectedBytes *= uint64(shards)
			if rs, rec, err = RecoverStore(Options{Dir: dir}, scfg); err == nil {
				rs.Close()
			}
			return rec, err
		}
		if mode == legacyMode {
			requireRefusedUntouched(t, dir, func() error {
				legacy := cfg
				legacy.HashMode = legacyMode
				_, err := recoverAs(legacy)
				return err
			})
		}
		rec, err := recoverAs(cfg)
		if err != nil {
			t.Fatalf("epoch %d: recovery: %v", epoch, err)
		}
		if tampered >= 0 {
			if rec.Outcome != OutcomeViolation {
				t.Fatalf("epoch %d sealed over an adversary's write recovered %s", epoch, rec.Outcome)
			}
			both(tampered, func(m *core.Machine) error { m.Adversary().Corrupt(m.ProgAddr(at), 0x40); return nil })
			history[tampered] = history[tampered][:len(history[tampered])-1] // not a state to restore
			continue
		}
		if rec.Outcome != OutcomeClean || rec.Epoch != epoch {
			t.Fatalf("epoch %d recovered %s at epoch %d (%s), want clean", epoch, rec.Outcome, rec.Epoch, rec.Detail)
		}
		for i := range live {
			if !bytes.Equal(rec.Roots[i], live[i]) {
				t.Fatalf("epoch %d shard %d: recovered root is not the live root", epoch, i)
			}
		}
	}
	reopen()
	if stats.DeltaSegments == 0 || stats.BaseSegments <= uint64(shards) || stats.CheckpointFails == 0 {
		t.Fatalf("degenerate run: %+v", stats)
	}
}

// TestShortWALWriteDoesNotMisframe is the regression for the retried short
// write: an I/O error that commits part of a record — in the WAL, a
// segment or the manifest — and is then retried must leave a directory
// that recovers clean. Appending the retried WAL record after its own
// fragment used to misframe every later record: checkpoints kept
// succeeding and the next recovery refused the directory.
func TestShortWALWriteDoesNotMisframe(t *testing.T) {
	cfg := testConfig(core.SchemeCached)
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	m := newMachine(t, cfg)
	st := openStore(t, Options{Dir: dir, FS: ffs, Retry: fastRetry})
	rng := rand.New(rand.NewSource(2))
	// A checkpoint makes at most eight writes: WAL intent, a segment's
	// four, the manifest, WAL commit.
	for skip := 0; skip < 8; skip++ {
		for n := 1; n <= 2; n++ {
			writeN(t, m, rng, 8)
			ffs.FailShort(skip, n)
			if _, err := st.Checkpoint(MachineSource{m}); err != nil {
				t.Fatalf("checkpoint with %d short writes after %d: %v", n, skip, err)
			}
			ffs.FailShort(0, 0)
		}
	}
	if s := st.Stats(); s.Retries < 20 || s.DeltaSegments == 0 {
		t.Fatalf("the short writes missed: %+v", s)
	}
	_, rec, err := RecoverMachine(Options{Dir: dir}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Outcome != OutcomeClean || !bytes.Equal(rec.Roots[0], m.Root()) {
		t.Fatalf("after retried short writes: %s (%s), roots %x, live root %x", rec.Outcome, rec.Detail, rec.Roots, m.Root())
	}

	// Retries that run out leave the fragment behind and poison the
	// store; recovery and the store reopened after it must cut the
	// fragment off before the next append.
	ropts := Options{Dir: t.TempDir(), FS: ffs, Retry: fastRetry}
	rst := openStore(t, ropts)
	ffs.FailShort(0, 100)
	if _, err := rst.Checkpoint(MachineSource{m}); err == nil {
		t.Fatal("checkpoint survived a WAL that cannot be written")
	}
	ffs.FailShort(0, 0)
	if _, err := rst.Checkpoint(MachineSource{m}); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("checkpoint on the store the failure poisoned: %v, want ErrStoreFailed", err)
	}
	rst.Close()
	if rec, err := Recover(ropts, cfg, 1); err != nil || rec.Outcome != OutcomeFresh {
		t.Fatalf("a directory whose first checkpoint died in its WAL intent: %v / %+v, want fresh", err, rec)
	}
	rst = openStore(t, ropts)
	if _, err := rst.Checkpoint(MachineSource{m}); err != nil {
		t.Fatal(err)
	}
	if rec, err := Recover(ropts, cfg, 1); err != nil || rec.Outcome != OutcomeClean {
		t.Fatalf("after a fragment was left behind: %v / %+v", err, rec)
	}
}

// deltaSegment is a small delta over a 300-byte image: its last line is
// the image's short last line.
func deltaSegment() *segment {
	return &segment{
		Epoch: 9, Shard: 2, Fingerprint: 42, Root: []byte{1, 2, 3, 4},
		Delta: true, Prev: 8, ImageSize: 300,
		Runs:  []mem.LineRun{{Line: 0, Count: 1}, {Line: 2, Count: 1}, {Line: 4, Count: 1}},
		Lines: bytes.Repeat([]byte{7}, 64+64+44),
	}
}

func TestDeltaSegmentRoundtrip(t *testing.T) {
	s := deltaSegment()
	enc := encodeSegment(t, s)
	got, err := decodeSegment(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Delta || got.Epoch != 9 || got.Shard != 2 || got.Fingerprint != 42 || got.Prev != 8 || got.ImageSize != 300 ||
		!bytes.Equal(got.Root, s.Root) || !bytes.Equal(got.Lines, s.Lines) || fmt.Sprint(got.Runs) != fmt.Sprint(s.Runs) {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
	img := make([]byte, 300)
	got.applyTo(img)
	for i, b := range img {
		if want := byte(7) * byte(1-(i/64)%2); b != want {
			t.Fatalf("image byte %d is %d after the delta, want %d", i, b, want)
		}
	}
	for n := 0; n < len(enc); n++ {
		if _, err := decodeSegment(enc[:n]); err == nil {
			t.Fatalf("delta truncated to %d of %d bytes decoded", n, len(enc))
		}
	}
	for bit := 0; bit < 8*len(enc); bit++ {
		enc[bit/8] ^= 1 << (bit % 8)
		if _, err := decodeSegment(enc); err == nil {
			t.Fatalf("delta with bit %d flipped decoded", bit)
		}
		enc[bit/8] ^= 1 << (bit % 8)
	}
}

// TestHostileRunTables: checksums are not integrity, so a delta whose run
// table lies, under a checksum recomputed to match, must be refused by the
// decoder before anything is sized or indexed by it.
func TestHostileRunTables(t *testing.T) {
	for name, forge := range map[string]func(s *segment){
		"empty-run":         func(s *segment) { s.Runs[1].Count = 0 },
		"out-of-order":      func(s *segment) { s.Runs[0], s.Runs[1] = s.Runs[1], s.Runs[0] },
		"overlap":           func(s *segment) { s.Runs[0].Count = 3; s.Lines = bytes.Repeat([]byte{7}, 192+64+44) },
		"starts-past-image": func(s *segment) { s.Runs[2].Line = 5 },
		"ends-past-image":   func(s *segment) { s.Runs[2].Count = 2; s.Lines = append(s.Lines, make([]byte, 64)...) },
		"huge-run":          func(s *segment) { s.Runs[2] = mem.LineRun{Line: 4, Count: 1<<32 - 1} },
		"too-few-bytes":     func(s *segment) { s.Lines = s.Lines[:100] },
		"too-many-bytes":    func(s *segment) { s.Lines = append(s.Lines, 0) },
		"points-forward":    func(s *segment) { s.Prev = 9 },
		"whole-short-line":  func(s *segment) { s.Lines = append(s.Lines, make([]byte, 20)...) },
	} {
		s := deltaSegment()
		forge(s)
		var buf bytes.Buffer
		if err := s.writeTo(&buf, nil); err != nil {
			t.Fatal(err)
		}
		if got, err := decodeSegment(buf.Bytes()); err == nil {
			t.Errorf("%s: hostile delta decoded: %+v", name, got)
		}
	}
	// A count that promises more runs than the file could hold must not be
	// allocated for.
	enc := encodeSegment(t, deltaSegment())
	countAt := segFixed + 4 + 16
	enc[countAt+3] = 0xff
	binary.LittleEndian.PutUint64(enc[len(enc)-8:], Checksum64(enc[:len(enc)-8]))
	if _, err := decodeSegment(enc); err == nil {
		t.Error("delta promising 4 billion runs decoded")
	}
}

func TestParseSegName(t *testing.T) {
	for _, c := range []struct {
		epoch uint64
		shard int
	}{{1, 0}, {999999, 999}, {12345678, 1234}} {
		if e, s, ok := parseSegName(segName(c.epoch, c.shard)); !ok || e != c.epoch || s != c.shard {
			t.Errorf("parseSegName(%q) = %d, %d, %v", segName(c.epoch, c.shard), e, s, ok)
		}
	}
	for _, name := range []string{"seg-000001--01.dat", "seg-1-0.dat", "seg-000001-000.dat.tmp", "seg-000001.dat", "seg--000.dat", "seg-00000x-000.dat"} {
		if _, _, ok := parseSegName(name); ok {
			t.Errorf("parseSegName(%q) accepted a name segName does not produce", name)
		}
	}
}
