package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
)

// The write-ahead log is a flat file of fixed-size sealed root records.
// Each committed epoch contributes a PAIR of records:
//
//	intent  — appended and fsynced BEFORE any segment or manifest write:
//	          "epoch E with root digest R is being checkpointed".
//	commit  — appended and fsynced AFTER the manifest rename lands:
//	          "epoch E is fully on disk".
//
// The pair closes the rollback window a single record would leave open.
// With only intent records, a crash between the WAL append and the
// checkpoint is indistinguishable from an adversary rolling the snapshot
// back one epoch — both present a WAL one epoch ahead of the manifest.
// With the pair, recovery accepts the older snapshot as a torn crash only
// when the lost epoch has no commit seal; a sealed epoch whose snapshot
// has regressed is a replay attack and classifies as a violation.
//
// Record layout (walRecordSize bytes, little-endian):
//
//	[0:4]   magic "MVWA"
//	[4]     type (1 = intent, 2 = commit)
//	[5:13]  epoch
//	[13:21] config fingerprint (scheme, hash, geometry, size, shards)
//	[21:25] shard count
//	[25:41] root digest: FNV-128 over epoch ∥ each shard's root record
//	[41:49] checksum (Checksum64) of bytes [0:41]
const (
	walName       = "wal.log"
	manifestName  = "MANIFEST"
	segPrefix     = "seg-"
	walRecordSize = 49

	recIntent byte = 1
	recCommit byte = 2
)

var walMagic = [4]byte{'M', 'V', 'W', 'A'}

// walRecord is one decoded sealed root record.
type walRecord struct {
	Type        byte
	Epoch       uint64
	Fingerprint uint64
	Shards      uint32
	RootDigest  [16]byte
}

// encode serializes the record, computing the trailing checksum.
func (r *walRecord) encode() []byte {
	buf := make([]byte, walRecordSize)
	copy(buf[0:4], walMagic[:])
	buf[4] = r.Type
	binary.LittleEndian.PutUint64(buf[5:13], r.Epoch)
	binary.LittleEndian.PutUint64(buf[13:21], r.Fingerprint)
	binary.LittleEndian.PutUint32(buf[21:25], r.Shards)
	copy(buf[25:41], r.RootDigest[:])
	binary.LittleEndian.PutUint64(buf[41:49], Checksum64(buf[:41]))
	return buf
}

// decodeWALRecord parses one record, verifying magic and checksum.
func decodeWALRecord(buf []byte) (walRecord, error) {
	var r walRecord
	if len(buf) != walRecordSize {
		return r, fmt.Errorf("persist: WAL record is %d bytes, want %d", len(buf), walRecordSize)
	}
	if [4]byte(buf[0:4]) != walMagic {
		return r, errors.New("persist: WAL record has bad magic")
	}
	if got, want := Checksum64(buf[:41]), binary.LittleEndian.Uint64(buf[41:49]); got != want {
		return r, errors.New("persist: WAL record checksum mismatch")
	}
	r.Type = buf[4]
	if r.Type != recIntent && r.Type != recCommit {
		return r, fmt.Errorf("persist: WAL record has unknown type %d", r.Type)
	}
	r.Epoch = binary.LittleEndian.Uint64(buf[5:13])
	r.Fingerprint = binary.LittleEndian.Uint64(buf[13:21])
	r.Shards = binary.LittleEndian.Uint32(buf[21:25])
	copy(r.RootDigest[:], buf[25:41])
	return r, nil
}

// rootDigest condenses an epoch's per-shard root records into the fixed
// 16-byte digest sealed in the WAL: FNV-128 over the epoch number followed
// by each shard's root bytes in shard order. Binding the epoch in blocks
// cross-epoch digest splicing even for identical roots.
func rootDigest(epoch uint64, roots [][]byte) [16]byte {
	h := fnv.New128a()
	var eb [8]byte
	binary.LittleEndian.PutUint64(eb[:], epoch)
	h.Write(eb[:])
	for _, r := range roots {
		h.Write(r)
	}
	var d [16]byte
	h.Sum(d[:0])
	return d
}

// Checksum64 is the checksum of every on-disk structure — WAL record,
// segment, manifest, anchor: CRC-32C (Castagnoli, which the CPU computes
// in hardware) of the parts taken in order as one byte string, carried in
// the structures' 8-byte checksum fields with the upper half zero. It
// protects against corruption and torn writes, not against an adversary —
// adversarial integrity comes from re-verifying the restored image against
// the sealed root with the engine itself — which is why it is exported:
// the chaos campaign's forgery leg recomputes a file's checksum after
// tampering to prove checksums alone are not integrity.
func Checksum64(parts ...[]byte) uint64 {
	var crc uint32
	for _, p := range parts {
		crc = crc32.Update(crc, castagnoli, p)
	}
	return uint64(crc)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WALRecordSize is the fixed size of one sealed WAL record, exported for
// tooling and campaigns that truncate the log at record boundaries.
const WALRecordSize = walRecordSize

// walScan is the result of reading the log back.
type walScan struct {
	// Records holds every well-formed record in file order.
	Records []walRecord
	// TornTail is true when the file ended in a partial or
	// checksum-corrupt final record — the signature of a crash during an
	// append. The torn tail is ignored (the record never committed).
	TornTail bool
	// TailBytes is the byte offset of the valid prefix; a repair pass may
	// truncate the file here.
	TailBytes int64
}

// scanWAL reads and validates the log. A malformed record anywhere but
// the tail is NOT crash damage — appends are sequential, so a crash can
// only tear the last record — and is reported as an error the caller
// classifies as a violation (WAL tampering).
func scanWAL(fsys FS, dir string) (walScan, error) {
	buf, err := readFile(fsys, filepath.Join(dir, walName))
	if err != nil {
		if os.IsNotExist(err) {
			return walScan{}, nil
		}
		return walScan{}, err
	}
	return scanWALBytes(buf)
}

// scanWALBytes is scanWAL over the log's bytes.
func scanWALBytes(buf []byte) (walScan, error) {
	var s walScan
	n := len(buf) / walRecordSize
	for i := 0; i < n; i++ {
		rec, err := decodeWALRecord(buf[i*walRecordSize : (i+1)*walRecordSize])
		if err != nil {
			if i == n-1 && len(buf)%walRecordSize == 0 {
				// Corrupt FINAL record: indistinguishable from a torn
				// append that happened to reach full length.
				s.TornTail = true
				s.TailBytes = int64(i * walRecordSize)
				return s, nil
			}
			return s, fmt.Errorf("persist: WAL record %d: %w", i, err)
		}
		s.Records = append(s.Records, rec)
	}
	if len(buf)%walRecordSize != 0 {
		// Trailing partial record: a torn append.
		s.TornTail = true
	}
	s.TailBytes = int64(n * walRecordSize)
	return s, nil
}

// wal manages the append side of the log.
type wal struct {
	fsys FS
	dir  string
	f    File
	// size is the length of the log's valid prefix: where the next record
	// belongs. The file is longer only while torn is set.
	size int64
	// torn is set when a write failed, and with it possibly left a
	// fragment of a record behind the valid prefix.
	torn bool
}

// openWAL opens (creating if needed) the log for appending. Whatever the
// file holds is taken as valid: callers scan it, and cut a torn tail off,
// first.
func openWAL(fsys FS, dir string) (*wal, error) {
	f, err := fsys.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &wal{fsys: fsys, dir: dir, f: f, size: info.Size()}, nil
}

// append writes one sealed record and makes it durable. A failed write may
// have committed a prefix of the record; appending after that fragment
// would misframe every later record, so the log is cut back to its valid
// length before any write that follows a failed one — a retry here, or the
// next append after the retries ran out.
func (w *wal) append(rec walRecord, retry *retrier) error {
	buf := rec.encode()
	if err := retry.do(func() error {
		if w.torn {
			if err := w.f.Truncate(w.size); err != nil {
				return err
			}
			w.torn = false
		}
		if _, err := w.f.Write(buf); err != nil {
			w.torn = true
			return err
		}
		return nil
	}); err != nil {
		return fmt.Errorf("persist: WAL append: %w", err)
	}
	w.size += walRecordSize
	if err := retry.do(w.f.Sync); err != nil {
		return fmt.Errorf("persist: WAL sync: %w", err)
	}
	return nil
}

func (w *wal) Close() error { return w.f.Close() }
