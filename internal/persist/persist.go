// Package persist makes the verification engine's protected state durable
// and crash-consistent. A checkpoint serializes each machine's persisted
// extent (core.StateExtent) — the data chunks, since the interior of
// every persisted scheme (naive, c and m; i is refused) is the hashes of
// the data — and the secure root register into per-shard segment files, committed atomically by a
// manifest rename and sealed by a write-ahead log of root transitions.
// Recovery replays the WAL, restores the last committed snapshot, checks
// it against the sealed root with the engine's own records, and
// classifies the outcome: recovered-clean, recovered-torn (a crash
// mid-checkpoint, resolved deterministically by rolling forward or back),
// or violation (on-disk tampering or a rollback/replay of committed state
// — detected, never silently accepted).
//
// Two trust layers stack: checksums on every structure give crash
// consistency (they catch torn writes and bit rot), and the machine's
// check of the restored state against the WAL-sealed root — the tree
// rebuilt from the data and its root compared — gives adversarial
// integrity: a forged state that
// passes every checksum still cannot produce the sealed root.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"memverify/internal/core"
	"memverify/internal/shard"
)

// Options configures a Store.
type Options struct {
	// Dir is the on-disk directory holding the WAL, manifest and
	// segments.
	Dir string
	// FS overrides the filesystem — the chaos campaign's fault-injection
	// hook. nil means the real disk.
	FS FS
	// AnchorPath, when set, names a file in EXTERNAL trusted storage
	// anchoring the WAL tail: the store rewrites it after every WAL
	// append, and recovery refuses a directory whose history trails or
	// forks from it — closing the whole-directory-replay hole (DESIGN
	// §10) that in-directory sealing cannot. The path should live outside
	// Dir (a different failure/trust domain); a replayed-but-internally-
	// consistent directory whose anchor disagrees classifies as
	// violation.
	AnchorPath string
	// Retry bounds the exponential backoff on transient I/O failures. A
	// checkpoint that fails anyway poisons the store: every later
	// Checkpoint fails fast with ErrStoreFailed.
	Retry RetryPolicy
	// OnEvent, when set, fires once per externally significant protocol
	// transition with an Event* kind, the epoch it concerns and a short
	// detail string. It runs synchronously on the goroutine driving the
	// checkpoint or recovery — the flight-recorder feed — except
	// EventRetryExhausted, which may fire on a checkpoint's shard lane;
	// calls never overlap.
	OnEvent func(kind string, epoch uint64, detail string)
}

// Event kinds passed to Options.OnEvent. The strings deliberately match
// the obs package's flight-recorder taxonomy so drivers can pass them
// through verbatim.
const (
	// EventIntent: the WAL intent record for a new epoch was fsynced —
	// epoch numbering has advanced even if the process now dies.
	EventIntent = "checkpoint-intent"
	// EventCommit: the manifest rename landed — the new epoch is the
	// recovery target from here on.
	EventCommit = "checkpoint-commit"
	// EventSeal: the WAL commit record was fsynced — the checkpoint is
	// fully sealed.
	EventSeal = "checkpoint-seal"
	// EventRecovery: a recovery classified; detail holds the outcome.
	EventRecovery = "recovery"
	// EventRetryExhausted: an I/O operation failed even after the
	// bounded-backoff retries.
	EventRetryExhausted = "retry-exhausted"
)

// note fires the OnEvent hook when present.
func (o Options) note(kind string, epoch uint64, detail string) {
	if o.OnEvent != nil {
		o.OnEvent(kind, epoch, detail)
	}
}

// ErrStoreFailed reports a store poisoned by a failed checkpoint.
var ErrStoreFailed = errors.New("persist: store failed a checkpoint")

// Source is the state provider a checkpoint drains: one machine, or one
// machine per shard. WithMachine must run f with exclusive access to
// shard i's machine at a quiesced point (no in-flight operations). It may
// be called concurrently for distinct i: a checkpoint snapshots its
// shards at once.
type Source interface {
	NumShards() int
	// MachineConfig returns the PER-MACHINE configuration (after any
	// shard split) — the basis of the config fingerprint.
	MachineConfig() core.Config
	WithMachine(i int, f func(*core.Machine) error) error
}

// MachineSource adapts a single machine.
type MachineSource struct{ M *core.Machine }

// NumShards implements Source.
func (s MachineSource) NumShards() int { return 1 }

// MachineConfig implements Source.
func (s MachineSource) MachineConfig() core.Config { return s.M.Cfg }

// WithMachine implements Source.
func (s MachineSource) WithMachine(i int, f func(*core.Machine) error) error {
	if i != 0 {
		return fmt.Errorf("persist: machine source has one shard, asked for %d", i)
	}
	return f(s.M)
}

// StoreSource adapts a sharded store: WithMachine runs on the shard's
// worker goroutine after its queue has drained, so the snapshot sees a
// quiesced machine.
type StoreSource struct{ S *shard.Store }

// NumShards implements Source.
func (s StoreSource) NumShards() int { return s.S.Shards() }

// MachineConfig implements Source.
func (s StoreSource) MachineConfig() core.Config { return s.S.MachineConfig() }

// WithMachine implements Source.
func (s StoreSource) WithMachine(i int, f func(*core.Machine) error) error {
	var err error
	if ferr := s.S.WithShard(i, func(m *core.Machine) { err = f(m) }); ferr != nil {
		return ferr // a faulted shard: its state is not checkpointed
	}
	return err
}

// Fingerprint condenses the configuration facets the on-disk format
// depends on into the 64-bit value sealed in every WAL record, segment
// and manifest: scheme, hash algorithm and record size, block and chunk
// geometry, per-machine protected size, and shard count. Cache geometry,
// latencies and workload knobs are deliberately excluded — they change
// timing, not state — so a snapshot taken under one cache configuration
// restores under another. Recovering under a different fingerprint fails
// loudly: the bytes would be reinterpreted under the wrong tree geometry.
func Fingerprint(cfg core.Config, shards int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) { binary.LittleEndian.PutUint64(b[:], v); h.Write(b[:]) }
	h.Write([]byte(cfg.Scheme))
	h.Write([]byte{0})
	h.Write([]byte(cfg.HashAlg))
	h.Write([]byte{0})
	put(uint64(cfg.HashSize))
	put(uint64(cfg.L2Block))
	put(uint64(cfg.ChunkBlocks))
	put(cfg.ProtectedBytes)
	put(uint64(shards))
	return h.Sum64()
}

// Store is the checkpoint side of the persistence layer. Callers
// serialize Checkpoint with their own workload barriers (a checkpoint is
// itself a commit point); inside one, the per-shard steps run on one
// goroutine per shard.
type Store struct {
	dir     string
	fsys    FS
	wal     *wal
	retry   *retrier
	onEvent func(kind string, epoch uint64, detail string)

	epoch      uint64 // last epoch this store sealed an intent for
	committed  uint64 // last epoch this store sealed a commit for
	anchorPath string // external trusted-storage anchor ("" = disabled)
	shards     int    // fixed at the first checkpoint
	fp         uint64
	failed     bool
	// wbufs are the write buffers the segments stream through, one per
	// shard lane, allocated at the first checkpoint and kept.
	wbufs [][]byte
	// chains is each shard's committed chain as of the last checkpoint,
	// nil whenever that checkpoint did not complete: the next one then
	// writes bases only.
	chains []chain

	stats Stats
}

// Open prepares dir for checkpointing, creating it if needed. An existing
// WAL is scanned so epoch numbering continues across restarts; a torn
// final record (the signature of a crash mid-append) is truncated away
// before new appends. Open does NOT restore state — that is Recover's
// job; Open is called after recovery (or on a fresh directory).
func Open(opts Options) (*Store, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OS{}
	}
	if opts.Dir == "" {
		return nil, errors.New("persist: Options.Dir is required")
	}
	if err := fsys.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: opts.Dir, fsys: fsys, onEvent: opts.OnEvent}
	s.retry = newRetrier(opts.Retry, &s.stats)
	if s.onEvent != nil {
		s.retry.onExhausted = func(err error) {
			s.onEvent(EventRetryExhausted, s.epoch, err.Error())
		}
	}

	scan, err := scanWAL(fsys, opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("persist: open: %w", err)
	}
	if scan.TornTail {
		if err := truncateWAL(fsys, opts.Dir, scan.TailBytes); err != nil {
			return nil, fmt.Errorf("persist: repairing torn WAL tail: %w", err)
		}
	}
	for _, rec := range scan.Records {
		if rec.Epoch > s.epoch {
			s.epoch = rec.Epoch
		}
		if rec.Type == recCommit && rec.Epoch > s.committed {
			s.committed = rec.Epoch
		}
		s.fp = rec.Fingerprint
		s.shards = int(rec.Shards)
	}
	if opts.AnchorPath != "" {
		s.anchorPath = opts.AnchorPath
		a, aerr := readAnchor(fsys, opts.AnchorPath)
		if aerr != nil {
			return nil, fmt.Errorf("persist: open: anchor: %w", aerr)
		}
		cur := anchorFromWAL(scan.Records)
		if a != nil {
			intents := map[uint64][16]byte{}
			for _, rec := range scan.Records {
				if rec.Type == recIntent {
					intents[rec.Epoch] = rec.RootDigest
				}
			}
			if err := validateAnchor(a, cur.Intent, cur.Commit, intents); err != nil {
				return nil, fmt.Errorf("persist: open: anchor: %w", err)
			}
		}
		// Enrollment on a fresh (or newly anchored) directory, and healing
		// of the one-epoch lag a crash between WAL fsync and anchor write
		// leaves behind.
		if a == nil || *a != *cur {
			if err := writeAnchor(fsys, opts.AnchorPath, cur); err != nil {
				return nil, fmt.Errorf("persist: open: anchor: %w", err)
			}
		}
	}
	w, err := openWAL(fsys, opts.Dir)
	if err != nil {
		return nil, err
	}
	s.wal = w
	return s, nil
}

// truncateWAL chops the log at off, discarding a torn tail.
func truncateWAL(fsys FS, dir string, off int64) error {
	f, err := fsys.OpenFile(filepath.Join(dir, walName), os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = f.Truncate(off)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close releases the WAL handle. The store must not be used afterwards.
func (s *Store) Close() error { return s.wal.Close() }

// Stats returns a copy of the counters.
func (s *Store) Stats() Stats { return s.stats }

// Epoch returns the last epoch an intent was sealed for.
func (s *Store) Epoch() uint64 { return s.epoch }

// Checkpoint drains src to a commit point and persists epoch s.Epoch()+1.
// Steps 1, 3 and 6 run on one lane per shard at once (shard 0's on the
// calling goroutine), and every lane joins before the next step; steps 2,
// 4 and 5 are serial. A one-shard store is one lane, so its file
// operations are one fixed sequence.
//
//  1. Snapshot every shard (an implicit Flush barrier per machine): a
//     frozen view of the extent's lines written since the shard's last
//     segment when chain.next allows a delta, of the whole extent
//     otherwise. The view copies the shard's page table, not its bytes;
//     until it is released, the shard's first write to a page it holds
//     copies that page.
//  2. Seal the INTENT record in the WAL (fsync).
//  3. Write one segment file per shard, base or delta (fsync each),
//     streamed from its view through the lane's write buffer, and
//     release the view. Names encode the epoch, so earlier epochs'
//     segments are never touched.
//  4. Commit: write MANIFEST.tmp, fsync, rename over MANIFEST, fsync
//     the directory.
//  5. Seal the COMMIT record in the WAL (fsync).
//  6. Garbage-collect the segments no shard's chain reaches any more.
//
// A crash before step 4's rename leaves the previous epoch fully intact
// (whichever segments of the new one the lanes had written);
// a crash after it leaves the new epoch recoverable (roll-forward). The
// intent/commit pair lets recovery tell a torn checkpoint from a
// rolled-back committed one — see the WAL format comment.
//
// Transient I/O errors are retried with bounded backoff. A checkpoint
// that fails — retries exhausted, or the snapshot itself refused (halted
// machine, non-persistable config) before anything is written — poisons
// the store, unless the failure is a kill: the process is gone either
// way, and recovery takes over.
func (s *Store) Checkpoint(src Source) (uint64, error) {
	if s.failed {
		return 0, ErrStoreFailed
	}
	start := time.Now()
	epoch, err := s.checkpoint(src)
	s.stats.CheckpointNanos += uint64(time.Since(start))
	if err != nil {
		s.stats.CheckpointFails++
		if !errors.Is(err, ErrKilled) {
			s.failed = true
		}
		return 0, err
	}
	s.stats.Checkpoints++
	return epoch, nil
}

func (s *Store) checkpoint(src Source) (uint64, error) {
	n := src.NumShards()
	cfg := src.MachineConfig()
	fp := Fingerprint(cfg, n)
	if s.shards == 0 {
		s.shards, s.fp = n, fp
	}
	if n != s.shards || fp != s.fp {
		return 0, fmt.Errorf("persist: source fingerprint %016x (%d shards) does not match the store's %016x (%d shards)",
			fp, n, s.fp, s.shards)
	}

	// Whatever happens below, the snapshots consume the machines' record
	// of what changed: the chains are only good again once this epoch is
	// sealed.
	chains := s.chains
	s.chains, s.stats.ChainLinks = nil, 0
	if chains == nil {
		chains = make([]chain, n)
	}
	segs := make([]*segment, n)
	seqs := make([]uint64, n)
	roots := make([][]byte, n)
	// Each snapshot holds its shard's pages until its segment is written;
	// whatever happens below, no view outlives the checkpoint.
	defer func() {
		for _, seg := range segs {
			if seg != nil {
				seg.view.Release()
			}
		}
	}()
	epoch := s.epoch + 1
	if err := lanes(n, func(i int) error {
		err := src.WithMachine(i, func(m *core.Machine) error {
			size := m.StateSize()
			snap, err := m.SaveStateSince(chains[i].next(size, m.Layout.HashSize))
			if err != nil {
				return err
			}
			seg := &segment{Epoch: epoch, Shard: uint32(i), Fingerprint: fp, Root: snap.Root, view: snap.View}
			if snap.View.Delta() {
				seg.Delta, seg.Prev, seg.ImageSize = true, chains[i].head(), size
				seg.Runs = snap.View.AppendRuns(nil)
			}
			segs[i], seqs[i], roots[i] = seg, snap.Seq, snap.Root
			return nil
		})
		if err != nil {
			return fmt.Errorf("persist: snapshot shard %d: %w", i, err)
		}
		return nil
	}); err != nil {
		return 0, err
	}

	digest := rootDigest(epoch, roots)
	rec := walRecord{Type: recIntent, Epoch: epoch, Fingerprint: fp, Shards: uint32(n), RootDigest: digest}
	if err := s.wal.append(rec, s.retry); err != nil {
		return 0, err
	}
	s.stats.WALRecords++
	s.stats.BytesWritten += walRecordSize
	// The intent is sealed: from here on, epoch numbering has advanced
	// even if the checkpoint dies — recovery resolves the tear.
	s.epoch = epoch
	if s.anchorPath != "" {
		if err := writeAnchor(s.fsys, s.anchorPath, &anchor{Intent: epoch, Commit: s.committed, Digest: digest}); err != nil {
			return 0, fmt.Errorf("persist: anchor: %w", err)
		}
	}
	if s.onEvent != nil {
		s.onEvent(EventIntent, epoch, "WAL intent sealed")
	}

	for len(s.wbufs) < n {
		s.wbufs = append(s.wbufs, make([]byte, 0, segBufSize))
	}
	if err := lanes(n, func(i int) error {
		seg := segs[i]
		write := func(w io.Writer) error { return seg.writeTo(w, s.wbufs[i]) }
		if err := s.writeFileSync(filepath.Join(s.dir, segName(epoch, i)), write); err != nil {
			return fmt.Errorf("persist: segment %d: %w", i, err)
		}
		seg.view.Release() // written and synced: the shard's pages are its own again
		return nil
	}); err != nil {
		return 0, err
	}
	for _, seg := range segs {
		s.stats.BytesWritten += uint64(seg.size())
		if seg.Delta {
			s.stats.DeltaSegments++
			s.stats.DeltaBytes += uint64(seg.size())
		} else {
			s.stats.BaseSegments++
		}
	}

	man := &manifest{Epoch: epoch, Fingerprint: fp, Shards: uint32(n)}
	mbuf := man.encode()
	tmp := filepath.Join(s.dir, manifestName+".tmp")
	if err := s.writeFileSync(tmp, writeBytes(mbuf)); err != nil {
		return 0, fmt.Errorf("persist: manifest: %w", err)
	}
	if err := s.retry.do(func() error {
		return s.fsys.Rename(tmp, filepath.Join(s.dir, manifestName))
	}); err != nil {
		return 0, fmt.Errorf("persist: manifest commit: %w", err)
	}
	if err := s.retry.do(func() error { return s.fsys.SyncDir(s.dir) }); err != nil {
		return 0, fmt.Errorf("persist: manifest commit: %w", err)
	}
	s.stats.BytesWritten += uint64(len(mbuf))
	if s.onEvent != nil {
		s.onEvent(EventCommit, epoch, "manifest renamed")
	}

	rec.Type = recCommit
	if err := s.wal.append(rec, s.retry); err != nil {
		return 0, err
	}
	s.stats.WALRecords++
	s.stats.BytesWritten += walRecordSize
	s.committed = epoch
	if s.anchorPath != "" {
		if err := writeAnchor(s.fsys, s.anchorPath, &anchor{Intent: epoch, Commit: epoch, Digest: digest}); err != nil {
			return 0, fmt.Errorf("persist: anchor: %w", err)
		}
	}

	for i, seg := range segs {
		chains[i] = chains[i].extend(seg, seqs[i])
		s.stats.ChainLinks = max(s.stats.ChainLinks, uint64(len(chains[i].epochs)-1))
	}
	s.chains = chains
	if s.onEvent != nil {
		kinds := make([]string, n)
		for i, seg := range segs {
			kinds[i] = fmt.Sprintf("shard %d %s %d B", i, seg.kind(), seg.size())
		}
		s.onEvent(EventSeal, epoch, "WAL commit sealed: "+strings.Join(kinds, ", "))
	}

	s.gc()
	return epoch, nil
}

// writeFileSync creates (truncating) name, has write fill it, and fsyncs
// it, under the retry policy. The whole file is rewritten from scratch on
// a transient failure — segments are rewritten idempotently, streamed
// again from the same view.
func (s *Store) writeFileSync(name string, write func(io.Writer) error) error {
	return s.retry.do(func() error {
		f, err := s.fsys.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
}

// writeBytes is the write function of a file that is one buffer.
func writeBytes(p []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(p)
		return err
	}
}

// gc removes the segments no shard's committed chain reaches, each
// shard's on its own lane in epoch order; names that belong to no shard
// go on shard 0's. Failures are ignored — the checkpoint is already
// committed and stray segments are inert: recovery reads only what the
// manifest's epoch reaches, and the next gc tries again.
func (s *Store) gc() {
	names, err := listSegments(s.fsys, s.dir)
	if err != nil {
		return
	}
	dead := make([][]string, len(s.chains))
	for _, name := range names { // sorted: epoch order within a shard
		epoch, shard, ok := parseSegName(name)
		if !ok || shard >= len(s.chains) {
			shard = 0
		} else if slices.Contains(s.chains[shard].epochs, epoch) {
			continue
		}
		dead[shard] = append(dead[shard], name)
	}
	_ = lanes(len(dead), func(i int) error {
		for _, name := range dead[i] {
			_ = s.fsys.Remove(filepath.Join(s.dir, name))
		}
		return nil
	})
}

// lanes runs f for every shard i < n at once, shard 0 on the calling
// goroutine, and returns the error of the lowest shard that failed. A
// one-shard store runs f inline: its operations are one sequence.
func lanes(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(i)
		}()
	}
	errs[0] = f(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
