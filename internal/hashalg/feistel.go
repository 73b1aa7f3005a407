package hashalg

import "encoding/binary"

// Feistel is a 128-bit block cipher built from a keyed hash in a
// Luby–Rackoff construction. Four rounds of a (pseudo)random round
// function yield a strong pseudorandom permutation, which is all the
// XOR-MAC of §5.5 requires of its encryption step E_k2.
type Feistel struct {
	alg    Algorithm
	rounds int
	// subkeys holds one precomputed round key per round, derived from the
	// user key so that round functions are independent.
	subkeys [][]byte
	// in and sum are the round function's input and digest scratch, so a
	// round allocates nothing. They make a Feistel single-goroutine state:
	// each XorMAC, and each engine above it, owns its own.
	in, sum []byte
}

// NewFeistel derives a 4-round 128-bit Feistel cipher from key using alg as
// the round function's keyed hash.
func NewFeistel(alg Algorithm, key []byte) *Feistel {
	const rounds = 4
	f := &Feistel{alg: alg, rounds: rounds}
	for r := 0; r < rounds; r++ {
		material := make([]byte, 0, len(key)+8)
		material = append(material, key...)
		var idx [8]byte
		binary.LittleEndian.PutUint64(idx[:], uint64(r)|0xFE15<<32)
		material = append(material, idx[:]...)
		f.subkeys = append(f.subkeys, alg.Sum(material))
	}
	return f
}

// round computes the 64-bit round function F(subkey, half).
func (f *Feistel) round(r int, half uint64) uint64 {
	f.in = binary.LittleEndian.AppendUint64(append(f.in[:0], f.subkeys[r]...), half)
	f.sum = f.alg.AppendSum(f.sum[:0], f.in)
	return binary.LittleEndian.Uint64(f.sum[:8])
}

// Encrypt applies the permutation to a 128-bit block.
func (f *Feistel) Encrypt(block [16]byte) [16]byte {
	l := binary.LittleEndian.Uint64(block[:8])
	r := binary.LittleEndian.Uint64(block[8:])
	for i := 0; i < f.rounds; i++ {
		l, r = r, l^f.round(i, r)
	}
	var out [16]byte
	binary.LittleEndian.PutUint64(out[:8], l)
	binary.LittleEndian.PutUint64(out[8:], r)
	return out
}

// Decrypt inverts Encrypt.
func (f *Feistel) Decrypt(block [16]byte) [16]byte {
	l := binary.LittleEndian.Uint64(block[:8])
	r := binary.LittleEndian.Uint64(block[8:])
	for i := f.rounds - 1; i >= 0; i-- {
		l, r = r^f.round(i, l), l
	}
	var out [16]byte
	binary.LittleEndian.PutUint64(out[:8], l)
	binary.LittleEndian.PutUint64(out[8:], r)
	return out
}
