package hashalg

import "encoding/binary"

// FNV128 is a fast non-cryptographic 128-bit hash, the default algorithm,
// which keeps the digests of functional runs cheap. It runs two
// independent 64-bit FNV-1a streams with distinct offset bases and
// concatenates them. It is collision resistant enough for a simulator's
// integrity bookkeeping (tamper tests still fail loudly on any real
// corruption) but must never be presented as cryptographic.
type FNV128 struct{}

// Name implements Algorithm.
func (FNV128) Name() string { return "fnv128" }

// Size implements Algorithm. The digest is 16 bytes.
func (FNV128) Size() int { return 16 }

const (
	fnvOffset64  = 0xcbf29ce484222325
	fnvPrime64   = 0x100000001b3
	fnvOffsetAlt = 0x6c62272e07bb0142 // high half of the FNV-1a 128-bit offset basis
)

// Sum implements Algorithm.
func (f FNV128) Sum(data []byte) []byte { return f.AppendSum(nil, data) }

// AppendSum implements Algorithm.
func (FNV128) AppendSum(dst, data []byte) []byte {
	h1 := uint64(fnvOffset64)
	h2 := uint64(fnvOffsetAlt)
	for _, b := range data {
		h1 = (h1 ^ uint64(b)) * fnvPrime64
		h2 = (h2 ^ uint64(b^0x5a)) * fnvPrime64
	}
	// Final avalanche so that short inputs differing in trailing zeros
	// still diffuse into every output byte.
	h1 = mix64(h1)
	h2 = mix64(h2 ^ h1)
	dst = binary.LittleEndian.AppendUint64(dst, h1)
	return binary.LittleEndian.AppendUint64(dst, h2)
}

// mix64 is the SplitMix64 finalizer.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
