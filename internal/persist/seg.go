package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Segment files hold one shard's complete protected-state image for one
// epoch: the data chunks AND the interior tree chunks (every stored
// hash/MAC record, including scheme i's stamped records), plus the shard's
// root record. Names encode epoch and shard (seg-%06d-%03d.dat), so a
// checkpoint never overwrites the previous epoch's segments — the commit
// point is the manifest rename, and old segments are garbage-collected
// only after the commit record is sealed.
//
// Layout (little-endian):
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
var segMagic = [4]byte{'M', 'V', 'S', 'G'}

// segFixed is the size of the header fields before the root bytes.
const segFixed = 4 + 8 + 4 + 8 + 4

// segment is one decoded segment file.
type segment struct {
	Epoch       uint64
	Shard       uint32
	Fingerprint uint64
	Root        []byte
	Image       []byte
}

func segName(epoch uint64, shard int) string {
	return fmt.Sprintf("%s%06d-%03d.dat", segPrefix, epoch, shard)
}

// size returns the encoded length of the segment in bytes.
func (s *segment) size() int { return segFixed + len(s.Root) + 8 + len(s.Image) + 8 }

// writeTo writes the segment to w as three writes — header, image,
// trailer — so the image goes from the snapshot straight to the file: no
// encoded copy of it is ever built, and the checksum is folded over the
// header and the image where they lie.
func (s *segment) writeTo(w io.Writer) error {
	hdr := make([]byte, 0, segFixed+len(s.Root)+8)
	hdr = append(hdr, segMagic[:]...)
	hdr = binary.LittleEndian.AppendUint64(hdr, s.Epoch)
	hdr = binary.LittleEndian.AppendUint32(hdr, s.Shard)
	hdr = binary.LittleEndian.AppendUint64(hdr, s.Fingerprint)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(s.Root)))
	hdr = append(hdr, s.Root...)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(s.Image)))
	trailer := binary.LittleEndian.AppendUint64(nil, Checksum64(hdr, s.Image))
	for _, part := range [][]byte{hdr, s.Image, trailer} {
		if _, err := w.Write(part); err != nil {
			return err
		}
	}
	return nil
}

// decodeSegment parses and checksums a segment file. Any malformation —
// torn write, flipped byte, truncation — is one error class here; the
// recovery layer decides whether that means "torn crash" or "tampering"
// from the WAL context.
func decodeSegment(buf []byte) (*segment, error) {
	if len(buf) < segFixed+8+8 {
		return nil, errors.New("persist: segment truncated")
	}
	if [4]byte(buf[0:4]) != segMagic {
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
	}
	rl := int(binary.LittleEndian.Uint32(buf[24:28]))
	if segFixed+rl+8 > len(body) {
		return nil, errors.New("persist: segment root length out of range")
	}
	s.Root = buf[segFixed : segFixed+rl]
	il := binary.LittleEndian.Uint64(buf[segFixed+rl : segFixed+rl+8])
	if uint64(segFixed+rl+8)+il != uint64(len(body)) {
		return nil, errors.New("persist: segment image length out of range")
	}
	s.Image = buf[segFixed+rl+8 : len(buf)-8]
	return s, nil
}

// SegmentImage returns the protected-state image inside the segment file
// buf, aliasing it: where a tool that tampers with a segment aims.
func SegmentImage(buf []byte) ([]byte, error) {
	s, err := decodeSegment(buf)
	if err != nil {
		return nil, err
	}
	return s.Image, nil
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
