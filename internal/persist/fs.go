package persist

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// FS is the slice of filesystem behaviour the persistence layer needs,
// factored out so the chaos crash campaign and the unit tests can wrap it
// with fault injection: kill points that fail (possibly after a partial
// write) and then fail everything — a process death — and transient
// errors that succeed on retry. Production code uses OS (the real disk).
type FS interface {
	// OpenFile opens name with the given flags and permissions.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes name.
	Remove(name string) error
	// MkdirAll creates name and any missing parents.
	MkdirAll(name string, perm os.FileMode) error
	// ReadDir lists the directory entries of name.
	ReadDir(name string) ([]fs.DirEntry, error)
	// SyncDir fsyncs the directory itself, making renames and file
	// creations durable.
	SyncDir(name string) error
}

// File is the per-file surface: sequential writes plus whole-file reads,
// which is all the WAL, segments and manifest need.
type File interface {
	Write(p []byte) (int, error)
	ReadAt(p []byte, off int64) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
	Stat() (os.FileInfo, error)
}

// OS is the passthrough FS over the real disk.
type OS struct{}

type osFile struct{ *os.File }

// OpenFile implements FS.
func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Rename implements FS.
func (OS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// MkdirAll implements FS.
func (OS) MkdirAll(name string, perm os.FileMode) error { return os.MkdirAll(name, perm) }

// ReadDir implements FS.
func (OS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

// SyncDir implements FS.
func (OS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ErrKilled is the terminal error a FaultFS returns at and after its kill
// point — the moment the simulated process dies. It is permanent: the
// retry machinery never retries it, exactly as a real crash gives the
// dying process no second attempt.
var ErrKilled = errors.New("persist: killed at injected crash point")

// ErrTransient wraps injected transient I/O failures; the retry machinery
// backs off and retries these.
var ErrTransient = errors.New("persist: transient I/O fault")

// Kill stages name the commit-protocol windows a FaultFS can die in. A
// stage is inferred from the operation kind and the file it targets, so
// campaigns can aim a kill between the WAL append and the checkpoint,
// mid-segment-write, or mid-manifest-rename without knowing the store's
// internal operation schedule.
const (
	StageWALWrite       = "wal-write"       // appending a root record
	StageWALSync        = "wal-sync"        // making the append durable
	StageSegWrite       = "seg-write"       // writing a checkpoint segment
	StageSegSync        = "seg-sync"        // making a segment durable
	StageManifestWrite  = "manifest-write"  // writing MANIFEST.tmp
	StageManifestRename = "manifest-rename" // the atomic commit rename
	// StageBetween kills on the first segment operation but WITHOUT the
	// torn partial write: the crash window after the WAL intent is fully
	// durable and before a single checkpoint byte lands.
	StageBetween = "between-wal-checkpoint"
	StageAny     = "any" // any mutating operation
)

// KillRule arms a FaultFS: die at the (After+1)-th mutating operation
// matching Stage. A write-stage kill first commits a prefix of the buffer
// — the torn write a real crash leaves — before failing.
type KillRule struct {
	Stage string
	After int
}

// FaultFS wraps an FS with fault injection. Its mutex orders the
// operations it gates: a checkpoint's shard lanes call it at once, so in a
// multi-shard store which lane reaches the k-th matching operation, and
// takes a queued fault, is up to the scheduler. A one-shard store's
// operations are one sequence, and its injections deterministic.
type FaultFS struct {
	inner FS

	mu sync.Mutex

	// kill configuration and state.
	rule    KillRule
	armed   bool
	matched int
	killed  bool

	// transient-fault injection: the next Transient mutating operations
	// fail once each with ErrTransient before succeeding on retry.
	transient int
	// short-write injection: after shortSkip more writes, the next short
	// writes commit a prefix of their buffer and fail with ErrTransient.
	shortSkip, short int

	// Ops counts mutating operations (writes, syncs, renames, removes,
	// truncates) observed so far, killed or not.
	Ops int
}

// NewFaultFS wraps inner (nil means the real disk).
func NewFaultFS(inner FS) *FaultFS {
	if inner == nil {
		inner = OS{}
	}
	return &FaultFS{inner: inner}
}

// Kill arms the kill rule. Stage "" means the FS never dies.
func (f *FaultFS) Kill(rule KillRule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rule = rule
	f.armed = rule.Stage != ""
	f.matched = 0
}

// FailTransient makes the next n mutating operations fail once each with
// ErrTransient; a retried operation succeeds.
func (f *FaultFS) FailTransient(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.transient += n
}

// FailShort makes the n writes that follow the next skip writes short:
// each commits a prefix of its buffer and then fails with ErrTransient —
// the EIO or ENOSPC that strikes mid-record — where FailTransient's faults
// write nothing.
func (f *FaultFS) FailShort(skip, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.shortSkip, f.short = skip, n
}

// Killed reports whether the kill point fired.
func (f *FaultFS) Killed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.killed
}

// stageOf classifies a mutating operation on a file path into a kill
// stage.
func stageOf(op, name string) string {
	base := filepath.Base(name)
	switch {
	case base == walName:
		if op == "sync" {
			return StageWALSync
		}
		return StageWALWrite
	case strings.HasPrefix(base, segPrefix):
		if op == "sync" {
			return StageSegSync
		}
		return StageSegWrite
	case base == manifestName+".tmp" || base == manifestName:
		if op == "rename" {
			return StageManifestRename
		}
		return StageManifestWrite
	}
	return ""
}

// check gates one mutating operation: it returns ErrKilled permanently
// once the kill point fires, ErrTransient while transient faults are
// queued, and nil otherwise. torn reports whether a failing write should
// commit a partial prefix first.
func (f *FaultFS) check(op, name string) (torn bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.Ops++
	if f.killed {
		return false, ErrKilled
	}
	if f.armed {
		stage := stageOf(op, name)
		match := f.rule.Stage == StageAny || (stage != "" && stage == f.rule.Stage)
		torn := op == "write"
		if f.rule.Stage == StageBetween {
			match = stage == StageSegWrite
			torn = false
		}
		if match {
			if f.matched == f.rule.After {
				f.killed = true
				return torn, ErrKilled
			}
			f.matched++
		}
	}
	if f.transient > 0 {
		f.transient--
		return false, fmt.Errorf("%w (%s %s)", ErrTransient, op, filepath.Base(name))
	}
	if op == "write" && f.short > 0 {
		if f.shortSkip > 0 {
			f.shortSkip--
			return false, nil
		}
		f.short--
		return true, fmt.Errorf("%w (short %s %s)", ErrTransient, op, filepath.Base(name))
	}
	return false, nil
}

// OpenFile implements FS. Opens are not kill points (a dying process's
// opens either happened or did not; the interesting windows are writes and
// syncs), but once killed everything fails.
func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f.mu.Lock()
	killed := f.killed
	f.mu.Unlock()
	if killed {
		return nil, ErrKilled
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, name: name, inner: inner}, nil
}

// Rename implements FS.
func (f *FaultFS) Rename(oldname, newname string) error {
	if _, err := f.check("rename", newname); err != nil {
		return err
	}
	return f.inner.Rename(oldname, newname)
}

// Remove implements FS.
func (f *FaultFS) Remove(name string) error {
	if _, err := f.check("remove", name); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

// MkdirAll implements FS.
func (f *FaultFS) MkdirAll(name string, perm os.FileMode) error {
	f.mu.Lock()
	killed := f.killed
	f.mu.Unlock()
	if killed {
		return ErrKilled
	}
	return f.inner.MkdirAll(name, perm)
}

// ReadDir implements FS. Reads never kill — recovery runs on a live
// process.
func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) { return f.inner.ReadDir(name) }

// SyncDir implements FS.
func (f *FaultFS) SyncDir(name string) error {
	if _, err := f.check("sync", filepath.Join(name, manifestName)); err != nil {
		return err
	}
	return f.inner.SyncDir(name)
}

// faultFile threads every mutating file operation through the owning
// FaultFS's gate.
type faultFile struct {
	fs    *FaultFS
	name  string
	inner File
}

func (f *faultFile) Write(p []byte) (int, error) {
	torn, err := f.fs.check("write", f.name)
	if err != nil {
		if torn && len(p) > 1 {
			// The failing write commits a prefix: the torn record/segment
			// a crash, or an I/O error mid-record, leaves behind.
			n, _ := f.inner.Write(p[:len(p)/2])
			return n, err
		}
		return 0, err
	}
	return f.inner.Write(p)
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) { return f.inner.ReadAt(p, off) }

func (f *faultFile) Sync() error {
	if _, err := f.fs.check("sync", f.name); err != nil {
		return err
	}
	return f.inner.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if _, err := f.fs.check("truncate", f.name); err != nil {
		return err
	}
	return f.inner.Truncate(size)
}

func (f *faultFile) Close() error { return f.inner.Close() }

func (f *faultFile) Stat() (os.FileInfo, error) { return f.inner.Stat() }

// readFile loads a whole file through an FS.
func readFile(fsys FS, name string) ([]byte, error) {
	f, err := fsys.OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, info.Size())
	n, err := f.ReadAt(buf, 0)
	if err != nil && n != len(buf) {
		return nil, err
	}
	return buf[:n], nil
}

// listSegments returns the segment file names in dir, sorted.
func listSegments(fsys FS, dir string) ([]string, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasPrefix(e.Name(), segPrefix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}
