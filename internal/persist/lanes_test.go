package persist

import (
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"memverify/internal/core"
	"memverify/internal/shard"
)

// recordingFS is the real disk, noting every operation the store asks of
// it as "op name" with the file's base name. It is for one-shard stores,
// whose checkpoint runs on one goroutine.
type recordingFS struct {
	OS
	ops []string
}

func (r *recordingFS) note(op, name string) { r.ops = append(r.ops, op+" "+filepath.Base(name)) }

func (r *recordingFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	r.note("open", name)
	f, err := r.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &recordingFile{File: f, fs: r, name: name}, nil
}

func (r *recordingFS) Rename(oldname, newname string) error {
	r.note("rename", newname)
	return r.OS.Rename(oldname, newname)
}

func (r *recordingFS) Remove(name string) error {
	r.note("remove", name)
	return r.OS.Remove(name)
}

func (r *recordingFS) SyncDir(name string) error {
	r.ops = append(r.ops, "syncdir")
	return r.OS.SyncDir(name)
}

func (r *recordingFS) ReadDir(name string) ([]fs.DirEntry, error) {
	r.ops = append(r.ops, "readdir")
	return r.OS.ReadDir(name)
}

type recordingFile struct {
	File
	fs   *recordingFS
	name string
}

func (f *recordingFile) Write(p []byte) (int, error) {
	f.fs.note("write", f.name)
	return f.File.Write(p)
}

func (f *recordingFile) Sync() error {
	f.fs.note("sync", f.name)
	return f.File.Sync()
}

func (f *recordingFile) Close() error {
	f.fs.note("close", f.name)
	return f.File.Close()
}

// TestOneShardSchedule pins the file operations of a one-shard store's
// checkpoints — a base, a delta onto it, and a base that collects both —
// to the sequence the store issued before its per-shard steps ran on
// lanes: a one-shard store has one lane, and the kill points of every
// one-shard crash campaign count these operations.
func TestOneShardSchedule(t *testing.T) {
	cfg := testConfig(core.SchemeCached)
	m := newMachine(t, cfg)
	rfs := &recordingFS{}
	st := openStore(t, Options{Dir: t.TempDir(), FS: rfs, Retry: fastRetry})
	rng := rand.New(rand.NewSource(3))
	// segment is a segment file's operations: a base's header, image and
	// trailer, a delta's header, run table, lines and trailer.
	segment := func(name string, writes int) []string {
		ops := []string{"open " + name}
		for ; writes > 0; writes-- {
			ops = append(ops, "write "+name)
		}
		return append(ops, "sync "+name, "close "+name)
	}
	intent := []string{"write wal.log", "sync wal.log"}
	commit := []string{
		"open MANIFEST.tmp", "write MANIFEST.tmp", "sync MANIFEST.tmp", "close MANIFEST.tmp",
		"rename MANIFEST", "syncdir", "write wal.log", "sync wal.log", "readdir",
	}
	for _, step := range []struct {
		name   string
		stores int
		want   [][]string
	}{
		{"base", 400, [][]string{intent, segment("seg-000001-000.dat", 3), commit}},
		{"delta", 8, [][]string{intent, segment("seg-000002-000.dat", 4), commit}},
		{"base-gc", 400, [][]string{intent, segment("seg-000003-000.dat", 3), commit,
			{"remove seg-000001-000.dat", "remove seg-000002-000.dat"}}},
	} {
		writeN(t, m, rng, step.stores)
		rfs.ops = nil
		if _, err := st.Checkpoint(MachineSource{m}); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if got, want := strings.Join(rfs.ops, "\n"), strings.Join(slices.Concat(step.want...), "\n"); got != want {
			t.Errorf("%s checkpoint's operations:\n%s\nwant:\n%s", step.name, got, want)
		}
	}
}

// TestLaneRetriesCounted queues transient faults while a four-shard
// store's segments stream on their lanes: every fault is one retry in
// Stats, whichever lanes absorb them, none exhausts, and the epoch
// recovers clean. Run under -race, it is also the check that the lanes
// share the retry bookkeeping safely.
func TestLaneRetriesCounted(t *testing.T) {
	const shards, faults = 4, 6
	cfg := testConfig(core.SchemeCached)
	cfg.ProtectedBytes *= shards
	scfg := shard.Config{Machine: cfg, Shards: shards}
	s, err := shard.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	// The faults are queued once the intent is sealed, so they land on
	// the segments' writes and syncs; with more attempts per operation
	// than faults, no lane can run out.
	st := openStore(t, Options{Dir: dir, FS: ffs, Retry: RetryPolicy{Attempts: faults + 1, BaseDelay: 1, MaxDelay: 1},
		OnEvent: func(kind string, _ uint64, _ string) {
			if kind == EventIntent {
				ffs.FailTransient(faults)
			}
		}})
	rng := rand.New(rand.NewSource(4))
	buf := make([]byte, 64)
	for epoch := uint64(1); epoch <= 3; epoch++ {
		for i := 0; i < 200; i++ {
			rng.Read(buf)
			if err := s.StoreBytes(rng.Uint64()%(s.Span()-64), buf); err != nil {
				t.Fatal(err)
			}
		}
		before := st.Stats()
		if _, err := st.Checkpoint(StoreSource{s}); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		after := st.Stats()
		if got := after.Retries - before.Retries; got != faults {
			t.Errorf("epoch %d: %d retries for %d transient faults", epoch, got, faults)
		}
		if after.RetryExhausted != 0 {
			t.Errorf("epoch %d: %d operations exhausted their retries", epoch, after.RetryExhausted)
		}
		recoverClean(t, dir, scfg, epoch)
	}
}
