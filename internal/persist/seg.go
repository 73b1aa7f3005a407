package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"memverify/internal/mem"
)

// Segment files hold one shard's protected state for one epoch: the
// shard machine's persisted extent (core.StateExtent) and its root record.
// The extent is the data region alone: the interior chunks of every
// persisted scheme are the hashes of the data, rebuilt at recovery.
// Names encode epoch and shard (seg-%06d-%03d.dat), so a
// checkpoint never overwrites an earlier epoch's segments — the commit
// point is the manifest rename, and segments are garbage-collected only
// after the commit record is sealed, and only when no committed chain
// reaches them.
//
// A segment is one of two kinds. A BASE carries the whole extent. A DELTA
// carries only the 64-byte lines of the extent written since the shard's
// previous segment — the link it applies to, named by epoch — so a
// shard's state at an epoch is a chain: head → … → base through the
// back-pointers, the deltas applied oldest first over the base's extent.
// Which kind a shard writes is decided per epoch by chain.next
// (chain.go).
//
// This is format 2, named by its magics. Format 1 (magics MVSG and MVSD)
// carried the whole image for every scheme; recovery refuses its files
// with a FormatError and has no reader for them.
//
// Base layout (little-endian):
//
//	[0:4]    magic "MVB2"
//	[4:12]   epoch
//	[12:16]  shard index
//	[16:24]  config fingerprint
//	[24:28]  root length
//	[...]    root bytes
//	[...:+8] extent length
//	[...]    extent bytes
//	[...:+8] checksum (Checksum64) of everything above
//
// Delta layout (little-endian):
//
//	[0:4]    magic "MVD2"
//	[4:12]   epoch
//	[12:16]  shard index
//	[16:24]  config fingerprint
//	[24:28]  root length
//	[...]    root bytes
//	[...:+8] epoch of the link this delta applies to (< epoch)
//	[...:+8] length of the extent it applies to
//	[...:+4] run count
//	[...:+8] line-bytes length
//	[...]    run table: per run, first line u32 and line count u32 —
//	         numbered from the extent's start, ascending, non-empty,
//	         non-overlapping, within the extent
//	[...]    line bytes, run after run (the extent's last line may be
//	         short)
//	[...:+8] checksum (Checksum64) of everything above
var (
	segMagic   = [4]byte{'M', 'V', 'B', '2'}
	deltaMagic = [4]byte{'M', 'V', 'D', '2'}
	// v1Magics are format 1's base and delta magics.
	v1Magics = [2][4]byte{{'M', 'V', 'S', 'G'}, {'M', 'V', 'S', 'D'}}
)

// errFormat1 is decodeSegment's refusal of a format-1 file.
var errFormat1 = errors.New("segment format 1 (the whole image for every scheme); this build reads format 2")

// FormatError is recovery's refusal of a segment this build does not
// read: a format-1 file, or one whose extent is not the length the
// configuration's persisted extent has (a whole image for c, say). It is
// a hard error, not a violation: nothing was adopted and nothing checked.
type FormatError struct {
	Epoch  uint64
	Shard  int
	Detail string
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("persist: epoch %d segment %d: %s", e.Epoch, e.Shard, e.Detail)
}

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
	// Image is a base's extent; nil in a delta. A chain loadChain folds
	// holds the whole region's image here instead.
	Image []byte

	// The rest is a delta's: the epoch of the link it applies to, the
	// length of the extent it applies to, and the changed lines.
	Delta     bool
	Prev      uint64
	ImageSize uint64
	Runs      []mem.LineRun
	Lines     []byte

	// view, when set, holds what Image or Lines would: a checkpoint's
	// frozen view of the shard's memory, streamed into the file from
	// where it lies.
	view *mem.Frozen
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
		return segFixed + len(s.Root) + deltaFixed + runSize*len(s.Runs) + s.bodyLen() + 8
	}
	return segFixed + len(s.Root) + 8 + s.bodyLen() + 8
}

// bodyLen returns the length of the segment's body: a base's extent, a
// delta's line bytes.
func (s *segment) bodyLen() int {
	switch {
	case s.view != nil && s.Delta:
		return int(s.view.LineBytes())
	case s.view != nil:
		return int(s.view.Len())
	case s.Delta:
		return len(s.Lines)
	}
	return len(s.Image)
}

// body calls fn with the segment's body piece by piece — a view's pages or
// line runs, or the one buffer that holds it — and stops at fn's first
// error.
func (s *segment) body(fn func([]byte) error) error {
	switch {
	case s.view != nil && s.Delta:
		return s.view.Lines(fn)
	case s.view != nil:
		return s.view.Image(fn)
	case s.Delta:
		return fn(s.Lines)
	}
	return fn(s.Image)
}

// kind names the segment's kind in events and errors.
func (s *segment) kind() string {
	if s.Delta {
		return "delta"
	}
	return "base"
}

// segBufSize is the size of the write buffer a Store streams its
// segments through.
const segBufSize = 64 << 10

// writeTo writes the segment to w through buf, a bounded write buffer
// (one of segBufSize when nil): a base as header, extent, trailer; a delta
// as header, run table, line bytes, trailer — each part flushed on its
// own, a part larger than buf in buf-sized writes. The body goes from
// where it lies — the checkpoint's view, or the segment's buffer — to the
// file through buf alone: no encoded copy of the segment is ever built,
// and the checksum is folded over the bytes as they pass.
func (s *segment) writeTo(w io.Writer, buf []byte) error {
	if cap(buf) == 0 {
		buf = make([]byte, 0, segBufSize)
	}
	sw := segWriter{dst: w, buf: buf[:0]}
	magic := segMagic
	if s.Delta {
		magic = deltaMagic
	}
	sw.write(magic[:])
	sw.uint64(s.Epoch)
	sw.uint32(s.Shard)
	sw.uint64(s.Fingerprint)
	sw.uint32(uint32(len(s.Root)))
	sw.write(s.Root)
	if s.Delta {
		sw.uint64(s.Prev)
		sw.uint64(s.ImageSize)
		sw.uint32(uint32(len(s.Runs)))
		sw.uint64(uint64(s.bodyLen()))
		sw.flush()
		for _, r := range s.Runs {
			sw.uint32(r.Line)
			sw.uint32(r.Count)
		}
	} else {
		sw.uint64(uint64(s.bodyLen()))
	}
	sw.flush()
	if err := s.body(sw.write); err != nil {
		return err
	}
	sw.flush()
	sw.uint64(uint64(sw.crc)) // Checksum64 of everything above
	sw.flush()
	return sw.err
}

// segWriter is a bounded write buffer in front of a segment file that
// folds the Checksum64 of every byte it flushes. After the first failed
// write it drops everything and keeps that error.
type segWriter struct {
	dst io.Writer
	buf []byte
	crc uint32
	err error
}

// write buffers p, flushing whenever the buffer fills. It returns the
// writer's error, so it can stand as a body's fn.
func (w *segWriter) write(p []byte) error {
	for len(p) > 0 && w.err == nil {
		n := copy(w.buf[len(w.buf):cap(w.buf)], p)
		w.buf, p = w.buf[:len(w.buf)+n], p[n:]
		if len(w.buf) == cap(w.buf) {
			w.flush()
		}
	}
	return w.err
}

func (w *segWriter) uint32(v uint32) {
	if cap(w.buf)-len(w.buf) < 4 {
		w.flush()
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

func (w *segWriter) uint64(v uint64) {
	if cap(w.buf)-len(w.buf) < 8 {
		w.flush()
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// flush folds the buffered bytes into the checksum and writes them out.
func (w *segWriter) flush() {
	if len(w.buf) > 0 && w.err == nil {
		w.crc = crc32.Update(w.crc, castagnoli, w.buf)
		_, w.err = w.dst.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

// decodeSegment parses and checksums a segment file of either kind. Any
// malformation — torn write, flipped byte, truncation — is one error class
// here; the recovery layer decides whether that means "torn crash" or
// "tampering" from the WAL context. A delta's run table is validated in
// full before it is returned — count, order, overlap, extent and total
// length — so applying a decoded delta can never index beyond the image it
// names or the line bytes it carries.
func decodeSegment(buf []byte) (*segment, error) {
	if len(buf) >= 4 && slices.Contains(v1Magics[:], [4]byte(buf[0:4])) {
		return nil, errFormat1
	}
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
			return nil, errors.New("persist: segment extent length out of range")
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
			return nil, fmt.Errorf("persist: delta segment run %d is empty, out of order or outside the extent", i)
		}
		if hi > s.ImageSize {
			// Only the extent's last line may be short.
			if hi-s.ImageSize >= mem.LineSize {
				return nil, fmt.Errorf("persist: delta segment run %d extends beyond the extent", i)
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

// applyTo writes the delta's lines over img, the extent of the link the
// delta points back to, which loadChain has checked is ImageSize bytes.
func (s *segment) applyTo(img []byte) {
	lines := s.Lines
	for _, r := range s.Runs {
		n := copy(img[uint64(r.Line)*mem.LineSize:], lines[:min(uint64(r.Count)*mem.LineSize, uint64(len(lines)))])
		lines = lines[n:]
	}
}

// readSegment reads the segment file name into buf[at:]. A base is read
// after headroom bytes of scratch, at = headroom, so that its extent
// sits where it does in the whole region's image: recovery rebuilds the
// interior in front of it without a copy. Any other file is read at 0.
func readSegment(fsys FS, name string, headroom uint64) (buf []byte, at int, err error) {
	f, err := fsys.OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	var magic [4]byte
	if n, _ := f.ReadAt(magic[:], 0); n == len(magic) && magic == segMagic {
		at = int(headroom)
	}
	buf = make([]byte, at+int(info.Size()))
	n, err := f.ReadAt(buf[at:], 0)
	if err != nil && at+n != len(buf) {
		return nil, 0, err
	}
	return buf[:at+n], at, nil
}

// SegmentImage returns the extent bytes the segment file buf carries,
// aliasing it — a base's whole extent, a delta's line bytes: where a tool
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
