package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// The anchor closes the whole-directory-replay hole (DESIGN §10): the WAL
// seals roots against in-place tampering, but an adversary who restores a
// complete older COPY of the directory — WAL, manifest and segments
// together — presents a fully self-consistent history and recovery alone
// cannot tell it from the real one. The anchor is a tiny record in
// EXTERNAL trusted storage (persist.Options.AnchorPath — a TPM NVRAM
// slot, a different failure domain, an operator-controlled file) that the
// directory must stay ahead of:
//
//	I_a  highest intent epoch whose WAL append was observed
//	C_a  highest commit epoch whose WAL append was observed
//	D_a  the root digest sealed in epoch I_a's intent record
//
// The store rewrites the anchor after every WAL append, so at recovery
// the directory's (I, C) may legitimately lead the anchor by at most one
// (the process can die between the WAL fsync and the anchor write) and
// must never trail it. A replayed directory trails; a forked history
// (same epoch number, different roots) disagrees with D_a. Both classify
// as violation.
//
// File layout (anchorSize bytes, little-endian):
//
//	[0:4]   magic "MVAN"
//	[4:12]  I_a
//	[12:20] C_a
//	[20:36] D_a
//	[36:44] checksum (Checksum64) of bytes [0:36]
const (
	anchorSize = 44
)

var anchorMagic = [4]byte{'M', 'V', 'A', 'N'}

// anchor is the decoded trusted-storage record.
type anchor struct {
	Intent uint64
	Commit uint64
	Digest [16]byte
}

func (a *anchor) encode() []byte {
	buf := make([]byte, anchorSize)
	copy(buf[0:4], anchorMagic[:])
	binary.LittleEndian.PutUint64(buf[4:12], a.Intent)
	binary.LittleEndian.PutUint64(buf[12:20], a.Commit)
	copy(buf[20:36], a.Digest[:])
	binary.LittleEndian.PutUint64(buf[36:44], Checksum64(buf[:36]))
	return buf
}

func decodeAnchor(buf []byte) (*anchor, error) {
	if len(buf) != anchorSize {
		return nil, fmt.Errorf("persist: anchor is %d bytes, want %d", len(buf), anchorSize)
	}
	if [4]byte(buf[0:4]) != anchorMagic {
		return nil, errors.New("persist: anchor has bad magic")
	}
	if got, want := Checksum64(buf[:36]), binary.LittleEndian.Uint64(buf[36:44]); got != want {
		return nil, errors.New("persist: anchor checksum mismatch")
	}
	a := &anchor{
		Intent: binary.LittleEndian.Uint64(buf[4:12]),
		Commit: binary.LittleEndian.Uint64(buf[12:20]),
	}
	copy(a.Digest[:], buf[20:36])
	return a, nil
}

// readAnchor loads the anchor at path. A missing file returns (nil, nil)
// — absence is classified by the caller, not here.
func readAnchor(fsys FS, path string) (*anchor, error) {
	buf, err := readFile(fsys, path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	return decodeAnchor(buf)
}

// writeAnchor atomically replaces the anchor at path (tmp + fsync +
// rename + parent-dir sync). The anchor models trusted storage, so the
// write is not routed through the retry/fault machinery: a failure is a
// hard error.
func writeAnchor(fsys FS, path string, a *anchor) error {
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(a.encode()); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// anchorFromWAL computes the anchor a directory's current WAL earns.
func anchorFromWAL(records []walRecord) *anchor {
	a := &anchor{}
	for _, r := range records {
		switch r.Type {
		case recIntent:
			if r.Epoch >= a.Intent {
				a.Intent = r.Epoch
				a.Digest = r.RootDigest
			}
		case recCommit:
			if r.Epoch > a.Commit {
				a.Commit = r.Epoch
			}
		}
	}
	return a
}

// validateAnchor checks the directory's WAL markers against the trusted
// anchor. I and C are the scanned max intent/commit epochs; intents maps
// intent epoch → sealed digest. The anchor may LAG the directory by one
// epoch on each marker (the crash window between a WAL fsync and the
// anchor rewrite) but the directory must never trail the anchor, and the
// anchored intent epoch's digest must match — a trailing or disagreeing
// directory is a replayed or forked history.
func validateAnchor(a *anchor, I, C uint64, intents map[uint64][16]byte) error {
	switch {
	case I < a.Intent:
		return fmt.Errorf("directory intent epoch %d trails the trusted anchor at %d: whole-directory replay", I, a.Intent)
	case I > a.Intent+1:
		return fmt.Errorf("directory intent epoch %d leads the trusted anchor at %d beyond the one-epoch crash window", I, a.Intent)
	case C < a.Commit:
		return fmt.Errorf("directory commit epoch %d trails the trusted anchor at %d: whole-directory replay", C, a.Commit)
	case C > a.Commit+1:
		return fmt.Errorf("directory commit epoch %d leads the trusted anchor at %d beyond the one-epoch crash window", C, a.Commit)
	}
	if a.Intent > 0 {
		d, ok := intents[a.Intent]
		if !ok {
			return fmt.Errorf("trusted anchor seals intent epoch %d but the WAL has no such intent: forked or replayed history", a.Intent)
		}
		if d != a.Digest {
			return fmt.Errorf("intent epoch %d root digest disagrees with the trusted anchor: forked history", a.Intent)
		}
	}
	return nil
}
