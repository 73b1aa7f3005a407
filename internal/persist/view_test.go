package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"memverify/internal/core"
	"memverify/internal/mem"
	"memverify/internal/shard"
)

// refEncode is a segment encoded the way the store wrote it before
// segments were streamed from views: every part built whole — a base's
// image, a delta's run table and line bytes — and the CRC32C of all of
// them appended.
func refEncode(s *segment, image []byte, runs []mem.LineRun, lines []byte) []byte {
	magic := segMagic
	if s.Delta {
		magic = deltaMagic
	}
	b := append([]byte(nil), magic[:]...)
	b = binary.LittleEndian.AppendUint64(b, s.Epoch)
	b = binary.LittleEndian.AppendUint32(b, s.Shard)
	b = binary.LittleEndian.AppendUint64(b, s.Fingerprint)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Root)))
	b = append(b, s.Root...)
	if s.Delta {
		b = binary.LittleEndian.AppendUint64(b, s.Prev)
		b = binary.LittleEndian.AppendUint64(b, s.ImageSize)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(runs)))
		b = binary.LittleEndian.AppendUint64(b, uint64(len(lines)))
		for _, r := range runs {
			b = binary.LittleEndian.AppendUint32(b, r.Line)
			b = binary.LittleEndian.AppendUint32(b, r.Count)
		}
		b = append(b, lines...)
	} else {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(image)))
		b = append(b, image...)
	}
	sum := crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli))
	return binary.LittleEndian.AppendUint64(b, uint64(sum))
}

// runLines returns the bytes of img that runs cover, run after run, the
// last line cut at the image's end.
func runLines(img []byte, runs []mem.LineRun) []byte {
	var lines []byte
	for _, r := range runs {
		lo := uint64(r.Line) * mem.LineSize
		lines = append(lines, img[lo:min(lo+uint64(r.Count)*mem.LineSize, uint64(len(img)))]...)
	}
	return lines
}

// checkStreamed streams seg from its view through a default and a
// 100-byte write buffer and requires both to equal want byte for byte;
// it releases the view.
func checkStreamed(t *testing.T, name string, seg *segment, want []byte) {
	t.Helper()
	defer seg.view.Release()
	for _, buf := range [][]byte{nil, make([]byte, 0, 100)} {
		var got bytes.Buffer
		if err := seg.writeTo(&got, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) || seg.size() != len(want) {
			t.Fatalf("%s (buffer %d): streamed segment is %d bytes (size() %d), the reference encoder's %d, and they differ",
				name, cap(buf), got.Len(), seg.size(), len(want))
		}
	}
}

// TestStreamedSegmentsMatchReference holds the segments a checkpoint
// streams from frozen views to the bytes of the reference encoder: a base
// whose image has never-written pages and a short last page, a delta with
// a run that crosses a page boundary, an idle delta with no lines, and an
// image whose last line is short — as a base and as a delta.
func TestStreamedSegmentsMatchReference(t *testing.T) {
	hdr := segment{Epoch: 7, Shard: 2, Fingerprint: 0xfeed, Root: []byte{9, 8, 7, 6, 5}}
	t.Run("machine", func(t *testing.T) {
		cfg := testConfig(core.SchemeCached, "full")
		cfg.ProtectedBytes = 64 << 10
		m := newMachine(t, cfg)
		writeN(t, m, rand.New(rand.NewSource(5)), 32)
		size := m.StateSize()
		if size%4096 == 0 {
			t.Fatalf("image of %d bytes has no short last page", size)
		}

		base, err := m.SaveStateSince(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		img, root, err := m.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		seg := hdr
		seg.Root, seg.view = root, base.View
		checkStreamed(t, "base", &seg, refEncode(&seg, img, nil, nil))

		// A store that straddles a page boundary of the physical image.
		since, err := m.SaveStateSince(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		since.View.Release()
		off := uint64(0)
		for m.ProgAddr(off)%4096 != 4096-64 && off < m.ProgSpan() {
			off += 64
		}
		if err := m.StoreBytes(off, bytes.Repeat([]byte{0xA5}, 128)); err != nil {
			t.Fatal(err)
		}
		delta, err := m.SaveStateSince(since.Seq, int(size))
		if err != nil || !delta.View.Delta() {
			t.Fatalf("want a delta: %v", err)
		}
		runs := delta.View.AppendRuns(nil)
		crosses := false
		for _, r := range runs {
			first, last := uint64(r.Line)*mem.LineSize/4096, (uint64(r.Line+r.Count)*mem.LineSize-1)/4096
			crosses = crosses || first != last
		}
		if !crosses {
			t.Fatalf("no run of %v crosses a page boundary", runs)
		}
		img, root, err = m.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		seg = hdr
		seg.Root, seg.view, seg.Delta, seg.Prev, seg.ImageSize, seg.Runs = root, delta.View, true, 6, size, runs
		checkStreamed(t, "delta", &seg, refEncode(&seg, nil, runs, runLines(img, runs)))

		since, err = m.SaveStateSince(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		since.View.Release()
		idle, err := m.SaveStateSince(since.Seq, 0)
		if err != nil || !idle.View.Delta() || idle.View.LineBytes() != 0 {
			t.Fatalf("want an idle delta: %v", err)
		}
		seg = hdr
		seg.Root, seg.view, seg.Delta, seg.Prev, seg.ImageSize = idle.Root, idle.View, true, 6, size
		checkStreamed(t, "idle delta", &seg, refEncode(&seg, nil, nil, nil))
	})

	t.Run("memory", func(t *testing.T) {
		// Pages 1 and 3 are never written; page 4 is short, and so is its
		// last line.
		const limit = 4*4096 + 1000
		s := mem.NewSparse()
		s.Write(100, bytes.Repeat([]byte{1}, 3000))
		s.Write(2*4096+64, []byte{2})
		s.Write(limit-10, bytes.Repeat([]byte{3}, 20))
		img := make([]byte, limit)
		s.Read(0, img)
		want := refEncode(&hdr, img, nil, nil)
		view := s.Freeze(limit, false)
		s.Write(0, bytes.Repeat([]byte{4}, limit)) // after the freeze: not in the view
		seg := hdr
		seg.view = view
		checkStreamed(t, "base", &seg, want)

		s.Freeze(limit, true).Release()
		s.Write(limit-1, []byte{5})
		s.Write(4096-1, []byte{5, 5})
		s.Read(0, img)
		view = s.Freeze(limit, true)
		runs := view.AppendRuns(nil)
		seg = hdr
		seg.view, seg.Delta, seg.Prev, seg.ImageSize, seg.Runs = view, true, 6, limit, runs
		want = refEncode(&seg, nil, runs, runLines(img, runs))
		s.Write(0, bytes.Repeat([]byte{6}, limit))
		checkStreamed(t, "delta", &seg, want)
	})
}

// TestCheckpointUnderConcurrentWrites runs checkpoints in a loop while
// writers keep storing on every shard, so every segment is streamed from
// views whose pages the shards go on writing. The oracle is recovery:
// each sealed epoch, copied aside, must recover clean — its image
// reproduces the WAL-sealed roots only if no page changed after it was
// frozen. Then two checkpoints fail past their retries under the record
// policy, one before its WAL intent and one mid-segment: each must have
// released its views (a write to any page they held allocates nothing)
// and left the last sealed epoch recoverable — clean, or torn and rolled
// back when a segment reached the disk — and the next checkpoint must
// succeed and recover clean.
func TestCheckpointUnderConcurrentWrites(t *testing.T) {
	scfg := shard.Config{Machine: testConfig(core.SchemeCached, "full"), Shards: 4}
	scfg.Machine.ProtectedBytes = 4 * 32 << 10
	s, err := shard.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	dir := t.TempDir()
	ffs := NewFaultFS(noSync{})
	st := openStore(t, Options{Dir: dir, FS: ffs, Retry: fastRetry, Policy: "record"})

	// Writer w owns the 64-byte slots k with k % writers == w, spread over
	// every shard, and mirrors what it stored there.
	const writers, slot = 4, 64
	slots := s.Span() / slot
	mirror := make([]byte, s.Span())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			buf := make([]byte, slot)
			for {
				select {
				case <-stop:
					return
				default:
				}
				off := (rng.Uint64()%(slots/writers)*writers + uint64(w)) * slot
				rng.Read(buf)
				if err := s.StoreBytes(off, buf); err != nil {
					errs <- err
					return
				}
				copy(mirror[off:], buf)
			}
		}(w)
	}

	var sealed []string
	for round := 0; round < 12; round++ {
		if _, err := st.Checkpoint(StoreSource{s}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		to := filepath.Join(t.TempDir(), "epoch")
		copyDir(t, dir, to)
		sealed = append(sealed, to)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if stats := st.Stats(); stats.DeltaSegments == 0 || stats.BaseSegments == 0 {
		t.Fatalf("the loop wrote %d bases and %d deltas, want both kinds", stats.BaseSegments, stats.DeltaSegments)
	}
	got := make([]byte, s.Span())
	if err := s.LoadBytes(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mirror) {
		t.Fatal("the live store does not read back what the writers stored")
	}
	for i, d := range sealed {
		recoverClean(t, d, scfg, uint64(i+1))
	}

	// Two checkpoints fail past their retries: one before its WAL intent
	// is written, one while its first segment streams. Before each, every
	// written page of every shard is rewritten with its own bytes, so the
	// checkpoint's views hold them all and the dirty lists have room for
	// them all; after each, writing them again must allocate nothing.
	last := uint64(len(sealed))
	for _, fail := range []struct {
		name   string
		inject func()
		want   Outcome // the outcome of recovering the directory it leaves
	}{
		{"before the intent", func() { ffs.FailTransient(fastRetry.Attempts) }, OutcomeClean},
		{"mid-segment", func() { ffs.FailShort(2, fastRetry.Attempts) }, OutcomeTorn},
	} {
		for i := 0; i < s.Shards(); i++ {
			if n, _ := rewritePages(s, i); n == 0 {
				t.Fatalf("%s: shard %d has no written page", fail.name, i)
			}
		}
		fail.inject()
		if _, err := st.Checkpoint(StoreSource{s}); err == nil {
			t.Fatalf("%s: a checkpoint whose writes all failed succeeded", fail.name)
		}
		for i := 0; i < s.Shards(); i++ {
			if n, mallocs := rewritePages(s, i); mallocs != 0 {
				t.Errorf("%s: shard %d: writing the %d pages the failed checkpoint froze made %d allocations: a view was not released",
					fail.name, i, n, mallocs)
			}
		}
		// The failed epoch left the directory at the last sealed one: clean
		// when nothing reached the disk, torn and rolled back when a
		// segment did.
		to := filepath.Join(t.TempDir(), "failed")
		copyDir(t, dir, to)
		r, rec, err := RecoverStore(Options{Dir: to}, scfg)
		if err != nil {
			t.Fatal(err)
		}
		r.Close()
		if rec.Outcome != fail.want || rec.Epoch != last || rec.RolledForward {
			t.Fatalf("%s: outcome %s at epoch %d forward=%v (%s), want %s at %d", fail.name, rec.Outcome, rec.Epoch, rec.RolledForward, rec.Detail, fail.want, last)
		}
	}
	epoch, err := st.Checkpoint(StoreSource{s})
	if err != nil {
		t.Fatalf("the checkpoint after the failed ones: %v", err)
	}
	to := filepath.Join(t.TempDir(), "next")
	copyDir(t, dir, to)
	recoverClean(t, to, scfg, epoch)
}

// rewritePages writes every page of shard i's image that is not all zeros
// back with its own bytes, through the shard's adversary — below the
// engine, so nothing it checks changes. It returns how many pages it
// wrote and how many allocations the writing made.
func rewritePages(s *shard.Store, i int) (pages int, mallocs uint64) {
	s.WithShard(i, func(m *core.Machine) {
		adv, page, zero := m.Adversary(), make([]byte, 4096), make([]byte, 4096)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for addr := uint64(0); addr < m.StateSize(); addr += 4096 {
			p := page[:min(4096, m.StateSize()-addr)]
			adv.Read(addr, p)
			if !bytes.Equal(p, zero[:len(p)]) {
				adv.Write(addr, p)
				pages++
			}
		}
		runtime.ReadMemStats(&after)
		mallocs = after.Mallocs - before.Mallocs
	})
	return pages, mallocs
}

// copyDir copies the regular files of from into a new directory to.
func copyDir(t *testing.T, from, to string) {
	t.Helper()
	if err := os.MkdirAll(to, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// recoverClean recovers the store in dir and requires recovered-clean at
// epoch.
func recoverClean(t *testing.T, dir string, scfg shard.Config, epoch uint64) {
	t.Helper()
	r, rec, err := RecoverStore(Options{Dir: dir}, scfg)
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	r.Close()
	if rec.Outcome != OutcomeClean || rec.Epoch != epoch {
		t.Fatalf("%s: outcome %s at epoch %d (%s), want %s at %d", dir, rec.Outcome, rec.Epoch, rec.Detail, OutcomeClean, epoch)
	}
}

// TestCheckpointAllocs pins what a checkpoint allocates. A base of a
// 4 MiB-shard machine allocates under a sixteenth of its image: the view
// copies page entries, and the store streams the pages through its write
// buffer. (Before views, a base allocated a whole image for its snapshot:
// about 1× the image.) A delta's allocation grows with its write set only
// by its run table and the view's entries for the pages it holds — not by
// the line bytes, which before views were copied too.
func TestCheckpointAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 4 MiB machine")
	}
	cfg := benchConfig()
	cfg.ProtectedBytes = 4 << 20
	m := newMachine(t, cfg)
	st := openStore(t, Options{Dir: t.TempDir(), FS: noSync{}, Retry: fastRetry})
	measure := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := st.Checkpoint(MachineSource{m}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	img, root, err := m.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreState(img, root); err != nil { // writes every page
		t.Fatal(err)
	}
	bases := st.Stats().BaseSegments
	got, image := measure(), m.StateSize()
	t.Logf("a base of a %d-byte image allocated %d bytes", image, got)
	if st.Stats().BaseSegments != bases+1 || got >= image/16 {
		t.Fatalf("a base checkpoint of a %d-byte image allocated %d bytes (bases %d → %d), want under %d",
			image, got, bases, st.Stats().BaseSegments, image/16)
	}

	// Deltas: every other line of a stretch of program data, so each dirty
	// data line is a run of its own. The least of three checkpoints is
	// taken, so that nothing else the process allocates meanwhile counts.
	delta := func(lines int) (alloc uint64, seg *segment) {
		alloc = ^uint64(0)
		for round := 0; round < 3; round++ {
			for k := 0; k < lines; k++ {
				if err := m.StoreBytes(uint64(2*k)*mem.LineSize, []byte{byte(3*lines + round)}); err != nil {
					t.Fatal(err)
				}
			}
			m.Flush() // the engine's write-backs are not the checkpoint's
			deltas := st.Stats().DeltaSegments
			alloc = min(alloc, measure())
			if st.Stats().DeltaSegments != deltas+1 {
				t.Fatalf("%d rewritten lines were not written as a delta", lines)
			}
		}
		buf, err := os.ReadFile(filepath.Join(st.dir, segName(st.Epoch(), 0)))
		if err != nil {
			t.Fatal(err)
		}
		seg, err = decodeSegment(buf)
		if err != nil {
			t.Fatal(err)
		}
		return alloc, seg
	}
	few, _ := delta(16)
	many, seg := delta(4096)
	t.Logf("deltas allocated %d bytes (few lines) and %d bytes (%d runs)", few, many, len(seg.Runs))
	pages := map[uint32]bool{}
	for _, r := range seg.Runs {
		for l := r.Line; l < r.Line+r.Count; l++ {
			pages[l/64] = true
		}
	}
	// A run is 8 bytes of table and a page entry 24 bytes, each slice
	// rounded up to the allocator's size class (8 KiB pages past 32 KiB);
	// the line bytes alone would be 8 times the table.
	bound := few + runSize*uint64(len(seg.Runs)) + 24*uint64(len(pages)) + 16<<10
	if many > bound {
		t.Fatalf("a delta of %d runs over %d pages (%d line bytes) allocated %d bytes, one of a few lines %d: over the bound %d",
			len(seg.Runs), len(pages), len(seg.Lines), many, few, bound)
	}
}
