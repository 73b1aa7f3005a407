package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"memverify/internal/mem"
)

// Segment files hold one shard's protected state for one epoch: the data
// chunks AND the interior tree chunks (every stored hash/MAC record,
// including scheme i's stamped records), plus the shard's root record.
// Names encode epoch and shard (seg-%06d-%03d.dat), so a checkpoint never
// overwrites an earlier epoch's segments — the commit point is the
// manifest rename, and segments are garbage-collected only after the
// commit record is sealed, and only when no committed chain reaches them.
//
// A segment is one of two kinds. A BASE carries the whole image. A DELTA
// carries only the 64-byte lines written since the shard's previous
// segment — the link it applies to, named by epoch — so a shard's state at
// an epoch is a chain: head → … → base through the back-pointers, the
// deltas applied oldest first over the base's image. Which kind a shard
// writes is decided per epoch by chain.next (chain.go).
//
// Base layout (little-endian):
//
//	[0:4]    magic "MVSG"
//	[4:12]   epoch
//	[12:16]  shard index
//	[16:24]  config fingerprint
//	[24:28]  root length
//	[...]    root bytes
//	[...:+8] image length
//	[...]    image bytes
//	[...:+8] checksum (Checksum64) of everything above
//
// Delta layout (little-endian):
//
//	[0:4]    magic "MVSD"
//	[4:12]   epoch
//	[12:16]  shard index
//	[16:24]  config fingerprint
//	[24:28]  root length
//	[...]    root bytes
//	[...:+8] epoch of the link this delta applies to (< epoch)
//	[...:+8] length of the image it applies to
//	[...:+4] run count
//	[...:+8] line-bytes length
//	[...]    run table: per run, first line u32 and line count u32 —
//	         ascending, non-empty, non-overlapping, within the image
//	[...]    line bytes, run after run (the image's last line may be short)
//	[...:+8] checksum (Checksum64) of everything above
var (
	segMagic   = [4]byte{'M', 'V', 'S', 'G'}
	deltaMagic = [4]byte{'M', 'V', 'S', 'D'}
)

const (
	// segFixed is the size of the header fields before the root bytes.
	segFixed = 4 + 8 + 4 + 8 + 4
	// deltaFixed is the size of a delta's fixed fields after the root
	// bytes: back-pointer, image length, run count, line-bytes length.
	deltaFixed = 8 + 8 + 4 + 8
	runSize    = 8 // one run-table entry
)

// segment is one decoded segment file.
type segment struct {
	Epoch       uint64
	Shard       uint32
	Fingerprint uint64
	Root        []byte
	// Image is a base's whole image; nil in a delta.
	Image []byte

	// The rest is a delta's: the epoch of the link it applies to, the
	// length of the image it applies to, and the changed lines.
	Delta     bool
	Prev      uint64
	ImageSize uint64
	Runs      []mem.LineRun
	Lines     []byte
}

func segName(epoch uint64, shard int) string {
	return fmt.Sprintf("%s%06d-%03d.dat", segPrefix, epoch, shard)
}

// parseSegName is segName's inverse.
func parseSegName(name string) (epoch uint64, shard int, ok bool) {
	e, sh, cut := strings.Cut(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), ".dat"), "-")
	epoch, eerr := strconv.ParseUint(e, 10, 64)
	shardNum, serr := strconv.ParseUint(sh, 10, 31)
	shard = int(shardNum)
	return epoch, shard, cut && eerr == nil && serr == nil && name == segName(epoch, shard)
}

// size returns the encoded length of the segment in bytes.
func (s *segment) size() int {
	if s.Delta {
		return segFixed + len(s.Root) + deltaFixed + runSize*len(s.Runs) + len(s.Lines) + 8
	}
	return segFixed + len(s.Root) + 8 + len(s.Image) + 8
}

// kind names the segment's kind in events and errors.
func (s *segment) kind() string {
	if s.Delta {
		return "delta"
	}
	return "base"
}

// writeTo writes the segment to w part by part — a base as header, image,
// trailer; a delta as header, run table, line bytes, trailer — so the
// bytes go from the snapshot straight to the file: no encoded copy of them
// is ever built, and the checksum is folded over the parts where they lie.
func (s *segment) writeTo(w io.Writer) error {
	magic := segMagic
	if s.Delta {
		magic = deltaMagic
	}
	hdr := make([]byte, 0, segFixed+len(s.Root)+deltaFixed)
	hdr = append(hdr, magic[:]...)
	hdr = binary.LittleEndian.AppendUint64(hdr, s.Epoch)
	hdr = binary.LittleEndian.AppendUint32(hdr, s.Shard)
	hdr = binary.LittleEndian.AppendUint64(hdr, s.Fingerprint)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(s.Root)))
	hdr = append(hdr, s.Root...)
	var parts [][]byte
	if s.Delta {
		hdr = binary.LittleEndian.AppendUint64(hdr, s.Prev)
		hdr = binary.LittleEndian.AppendUint64(hdr, s.ImageSize)
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(s.Runs)))
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(s.Lines)))
		table := make([]byte, 0, runSize*len(s.Runs))
		for _, r := range s.Runs {
			table = binary.LittleEndian.AppendUint32(table, r.Line)
			table = binary.LittleEndian.AppendUint32(table, r.Count)
		}
		parts = [][]byte{hdr, table, s.Lines}
	} else {
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(s.Image)))
		parts = [][]byte{hdr, s.Image}
	}
	parts = append(parts, binary.LittleEndian.AppendUint64(nil, Checksum64(parts...)))
	for _, part := range parts {
		if len(part) == 0 {
			continue // a delta of an idle epoch has no table and no lines
		}
		if _, err := w.Write(part); err != nil {
			return err
		}
	}
	return nil
}

// decodeSegment parses and checksums a segment file of either kind. Any
// malformation — torn write, flipped byte, truncation — is one error class
// here; the recovery layer decides whether that means "torn crash" or
// "tampering" from the WAL context. A delta's run table is validated in
// full before it is returned — count, order, overlap, extent and total
// length — so applying a decoded delta can never index beyond the image it
// names or the line bytes it carries.
func decodeSegment(buf []byte) (*segment, error) {
	if len(buf) < segFixed+8+8 {
		return nil, errors.New("persist: segment truncated")
	}
	delta := [4]byte(buf[0:4]) == deltaMagic
	if !delta && [4]byte(buf[0:4]) != segMagic {
		return nil, errors.New("persist: segment has bad magic")
	}
	body, sum := buf[:len(buf)-8], binary.LittleEndian.Uint64(buf[len(buf)-8:])
	if Checksum64(body) != sum {
		return nil, errors.New("persist: segment checksum mismatch")
	}
	s := &segment{
		Epoch:       binary.LittleEndian.Uint64(buf[4:12]),
		Shard:       binary.LittleEndian.Uint32(buf[12:16]),
		Fingerprint: binary.LittleEndian.Uint64(buf[16:24]),
		Delta:       delta,
	}
	rl := int(binary.LittleEndian.Uint32(buf[24:28]))
	if segFixed+rl+8 > len(body) {
		return nil, errors.New("persist: segment root length out of range")
	}
	s.Root = buf[segFixed : segFixed+rl]
	rest := body[segFixed+rl:]
	if !delta {
		if binary.LittleEndian.Uint64(rest) != uint64(len(rest)-8) {
			return nil, errors.New("persist: segment image length out of range")
		}
		s.Image = rest[8:]
		return s, nil
	}
	if len(rest) < deltaFixed {
		return nil, errors.New("persist: delta segment truncated")
	}
	s.Prev = binary.LittleEndian.Uint64(rest[0:8])
	s.ImageSize = binary.LittleEndian.Uint64(rest[8:16])
	runs := uint64(binary.LittleEndian.Uint32(rest[16:20]))
	lineBytes := binary.LittleEndian.Uint64(rest[20:28])
	rest = rest[deltaFixed:]
	if s.Prev >= s.Epoch {
		return nil, errors.New("persist: delta segment does not point back in time")
	}
	if runs*runSize > uint64(len(rest)) || lineBytes != uint64(len(rest))-runs*runSize {
		return nil, errors.New("persist: delta segment table or line length out of range")
	}
	table := rest[:runs*runSize]
	s.Lines = rest[runs*runSize:]
	s.Runs = make([]mem.LineRun, runs)
	next, total := uint64(0), uint64(0) // first line a run may start at; line bytes so far
	for i := range s.Runs {
		r := mem.LineRun{
			Line:  binary.LittleEndian.Uint32(table[i*runSize:]),
			Count: binary.LittleEndian.Uint32(table[i*runSize+4:]),
		}
		lo, hi := uint64(r.Line)*mem.LineSize, (uint64(r.Line)+uint64(r.Count))*mem.LineSize
		if r.Count == 0 || uint64(r.Line) < next || lo >= s.ImageSize {
			return nil, fmt.Errorf("persist: delta segment run %d is empty, out of order or outside the image", i)
		}
		if hi > s.ImageSize {
			// Only the image's last line may be short.
			if hi-s.ImageSize >= mem.LineSize {
				return nil, fmt.Errorf("persist: delta segment run %d extends beyond the image", i)
			}
			hi = s.ImageSize
		}
		s.Runs[i] = r
		next, total = uint64(r.Line)+uint64(r.Count), total+hi-lo
	}
	if total != lineBytes {
		return nil, errors.New("persist: delta segment runs do not add up to its line bytes")
	}
	return s, nil
}

// applyTo writes the delta's lines over img, the image of the link the
// delta points back to.
func (s *segment) applyTo(img []byte) error {
	if uint64(len(img)) != s.ImageSize {
		return fmt.Errorf("delta of epoch %d applies to a %d-byte image, its chain's base holds %d",
			s.Epoch, s.ImageSize, len(img))
	}
	lines := s.Lines
	for _, r := range s.Runs {
		n := copy(img[uint64(r.Line)*mem.LineSize:], lines[:min(uint64(r.Count)*mem.LineSize, uint64(len(lines)))])
		lines = lines[n:]
	}
	return nil
}

// SegmentImage returns the image bytes the segment file buf carries,
// aliasing it — a base's whole image, a delta's line bytes: where a tool
// that tampers with a segment aims.
func SegmentImage(buf []byte) ([]byte, error) {
	s, err := decodeSegment(buf)
	if err != nil {
		return nil, err
	}
	if s.Delta {
		return s.Lines, nil
	}
	return s.Image, nil
}

// RelabelSegment rewrites, in place, the epoch the segment file buf claims
// — pointing a delta back at the epoch before it — and recomputes the
// file's checksum: how a tool passes one epoch's segment off as another's.
func RelabelSegment(buf []byte, epoch uint64) error {
	s, err := decodeSegment(buf)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(buf[4:12], epoch)
	if s.Delta {
		binary.LittleEndian.PutUint64(buf[segFixed+len(s.Root):], epoch-1)
	}
	binary.LittleEndian.PutUint64(buf[len(buf)-8:], Checksum64(buf[:len(buf)-8]))
	return nil
}

// The manifest is the checkpoint's commit point: a tiny fixed-size file
// naming the current epoch, replaced atomically (write tmp, fsync, rename,
// fsync dir). Whichever manifest the rename left in place determines which
// epoch's segments are live.
//
// Layout: magic "MVMF", epoch u64, fingerprint u64, shard count u32,
// checksum u64.
var manifestMagic = [4]byte{'M', 'V', 'M', 'F'}

const manifestSize = 4 + 8 + 8 + 4 + 8

type manifest struct {
	Epoch       uint64
	Fingerprint uint64
	Shards      uint32
}

func (m *manifest) encode() []byte {
	buf := make([]byte, 0, manifestSize)
	buf = append(buf, manifestMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, m.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, m.Fingerprint)
	buf = binary.LittleEndian.AppendUint32(buf, m.Shards)
	buf = binary.LittleEndian.AppendUint64(buf, Checksum64(buf))
	return buf
}

func decodeManifest(buf []byte) (*manifest, error) {
	if len(buf) != manifestSize {
		return nil, fmt.Errorf("persist: manifest is %d bytes, want %d", len(buf), manifestSize)
	}
	if [4]byte(buf[0:4]) != manifestMagic {
		return nil, errors.New("persist: manifest has bad magic")
	}
	if Checksum64(buf[:manifestSize-8]) != binary.LittleEndian.Uint64(buf[manifestSize-8:]) {
		return nil, errors.New("persist: manifest checksum mismatch")
	}
	return &manifest{
		Epoch:       binary.LittleEndian.Uint64(buf[4:12]),
		Fingerprint: binary.LittleEndian.Uint64(buf[12:20]),
		Shards:      binary.LittleEndian.Uint32(buf[20:24]),
	}, nil
}
