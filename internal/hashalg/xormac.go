package hashalg

import "encoding/binary"

// MACSize is the XOR-MAC tag length in bytes (128 bits, matching the
// paper's stored hash length, so MAC records drop into the same tree
// slots as ordinary hashes).
const MACSize = 16

// MaxMACBlocks is the largest number of cache blocks one chunk may span
// under the incremental scheme: one timestamp bit per block is packed into
// the tag's final byte.
const MaxMACBlocks = 8

// XorMAC is the incremental MAC of §5.5, after Bellare, Guérin and Rogaway:
//
//	M_{k1,k2}(m_1..m_n) = E_{k2}( h_{k1}(1, m_1, b_1) ⊕ … ⊕ h_{k1}(n, m_n, b_n) )
//
// where b_i is the 1-bit per-block timestamp the paper adds to defeat the
// two replay attacks analyzed in §5.5: the stamp flips on every write-back
// and is hashed into the block's term, so an unchecked "old value" read
// during an update can never cancel against a current term.
//
// Storage format: the 15 low bytes of the accumulator carry the XOR of the
// per-block terms (whose 16th byte is zeroed); the 16th byte carries the
// packed timestamp bits. The whole 16-byte record is encrypted with a
// Feistel PRP, so tags remain MACSize bytes and the stored timestamps are
// themselves authenticated.
//
// A tag can be updated for a single block change without touching the
// other blocks: decrypt, XOR out the old term, XOR in the new term, flip
// the stamp bit, re-encrypt — constant work, which is what lets the `i`
// scheme's write-back skip fetching the rest of the chunk.
type XorMAC struct {
	alg Algorithm
	k1  []byte
	e   *Feistel

	// Timestamps toggles folding the stamp bits into the per-block terms.
	// It exists so tests can demonstrate the paper's two attacks against
	// the unstamped variant; production use must leave it true.
	Timestamps bool

	// in and sum are term's input and digest scratch, so an update
	// allocates nothing; like the Feistel's, they confine an XorMAC to one
	// goroutine at a time.
	in, sum []byte
}

// NewXorMAC builds an XOR-MAC over alg (which supplies both the term hash
// h and the Feistel round function) keyed with key.
func NewXorMAC(alg Algorithm, key []byte) *XorMAC {
	k1 := alg.Sum(append([]byte("xormac-h|"), key...))
	k2 := alg.Sum(append([]byte("xormac-e|"), key...))
	return &XorMAC{alg: alg, k1: k1, e: NewFeistel(alg, k2), Timestamps: true}
}

// term computes h_{k1}(index, block, stamp), truncated to MACSize bytes
// with the final byte cleared (that byte is reserved for the packed
// timestamps in the accumulator).
func (m *XorMAC) term(index int, block []byte, stamp bool) [MACSize]byte {
	buf := binary.LittleEndian.AppendUint64(append(m.in[:0], m.k1...), uint64(index))
	if m.Timestamps && stamp {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	m.in = append(buf, block...)
	m.sum = m.alg.AppendSum(m.sum[:0], m.in)
	var out [MACSize]byte
	copy(out[:], m.sum)
	out[MACSize-1] = 0
	return out
}

func bit(stamps byte, i int) bool { return stamps&(1<<uint(i)) != 0 }

// Compute produces the tag over blocks with the given packed timestamp
// bits (bit i belongs to block i). len(blocks) must not exceed
// MaxMACBlocks.
func (m *XorMAC) Compute(blocks [][]byte, stamps byte) [MACSize]byte {
	if len(blocks) > MaxMACBlocks {
		panic("hashalg: too many blocks for one XOR-MAC record")
	}
	var acc [MACSize]byte
	for i, b := range blocks {
		t := m.term(i, b, bit(stamps, i))
		for j := 0; j < MACSize-1; j++ {
			acc[j] ^= t[j]
		}
	}
	acc[MACSize-1] = stamps
	return m.e.Encrypt(acc)
}

// Stamps decrypts the tag and returns the authenticated packed timestamp
// bits stored inside it.
func (m *XorMAC) Stamps(tag [MACSize]byte) byte {
	acc := m.e.Decrypt(tag)
	return acc[MACSize-1]
}

// Verify reports whether tag authenticates blocks under the timestamps the
// tag itself carries.
func (m *XorMAC) Verify(tag [MACSize]byte, blocks [][]byte) bool {
	return m.Compute(blocks, m.Stamps(tag)) == tag
}

// Update derives the tag after block index changes from oldBlock to
// newBlock, flipping that block's timestamp bit. It performs a constant
// amount of work independent of the number of blocks. oldBlock is the
// value read back from (untrusted) memory; the stamped terms guarantee a
// lying read cannot yield a tag that later verifies, per §5.5.
func (m *XorMAC) Update(tag [MACSize]byte, index int, oldBlock, newBlock []byte) [MACSize]byte {
	acc := m.e.Decrypt(tag)
	stamps := acc[MACSize-1]
	oldT := m.term(index, oldBlock, bit(stamps, index))
	newT := m.term(index, newBlock, !bit(stamps, index))
	for j := 0; j < MACSize-1; j++ {
		acc[j] ^= oldT[j] ^ newT[j]
	}
	acc[MACSize-1] = stamps ^ (1 << uint(index))
	return m.e.Encrypt(acc)
}
