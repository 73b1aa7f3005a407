// Package lamport implements Lamport one-time signatures over hashalg's
// SHA-1, providing the "processor secret that signs results" primitive of
// the paper's certified-execution application (§4.1).
//
// A key signs exactly one message. The secure processor of the paper
// derives a fresh program-bound key per execution (a collision-resistant
// combination of its secret and the program), which matches one-time
// semantics well.
package lamport

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"memverify/internal/hashalg"
)

const (
	// HashSize is the digest size of the underlying hash (SHA-1).
	HashSize = 20
	// Bits is the number of message-digest bits, each consuming one
	// secret pair.
	Bits = HashSize * 8
)

// PrivateKey holds the 2×Bits secret preimages.
type PrivateKey struct {
	used bool
	sk   [Bits][2][]byte
	pk   *PublicKey
}

// PublicKey holds the hashes of the preimages.
type PublicKey struct {
	pk [Bits][2][]byte
}

// Signature reveals one preimage per message-digest bit.
type Signature struct {
	sig [Bits][]byte
}

// GenerateKey derives a deterministic one-time key pair from seed — in
// the paper's setting, the processor's secret combined with the program
// hash (the "key that is unique to the processor-program pair").
func GenerateKey(seed []byte) *PrivateKey {
	alg := hashalg.SHA1{}
	priv := &PrivateKey{pk: &PublicKey{}}
	for i := 0; i < Bits; i++ {
		for b := 0; b < 2; b++ {
			material := make([]byte, 0, len(seed)+10)
			material = append(material, seed...)
			var idx [8]byte
			binary.LittleEndian.PutUint64(idx[:], uint64(i))
			material = append(material, idx[:]...)
			material = append(material, byte(b), 0x4C)
			priv.sk[i][b] = alg.Sum(material)
			priv.pk.pk[i][b] = alg.Sum(priv.sk[i][b])
		}
	}
	return priv
}

// Public returns the verification key.
func (k *PrivateKey) Public() *PublicKey { return k.pk }

// Sign signs message. A second call fails: revealing preimages for two
// different digests would let a forger mix and match.
func (k *PrivateKey) Sign(message []byte) (*Signature, error) {
	if k.used {
		return nil, fmt.Errorf("lamport: one-time key already used")
	}
	k.used = true
	alg := hashalg.SHA1{}
	digest := alg.Sum(message)
	var sig Signature
	for i := 0; i < Bits; i++ {
		bit := (digest[i/8] >> (7 - uint(i%8))) & 1
		sig.sig[i] = k.sk[i][bit]
	}
	return &sig, nil
}

// Verify reports whether sig authenticates message under pk.
func (pk *PublicKey) Verify(message []byte, sig *Signature) bool {
	if sig == nil {
		return false
	}
	alg := hashalg.SHA1{}
	digest := alg.Sum(message)
	for i := 0; i < Bits; i++ {
		bit := (digest[i/8] >> (7 - uint(i%8))) & 1
		if sig.sig[i] == nil || !bytes.Equal(alg.Sum(sig.sig[i]), pk.pk[i][bit]) {
			return false
		}
	}
	return true
}

// Marshal flattens the public key for publication (e.g., by the
// processor's manufacturer).
func (pk *PublicKey) Marshal() []byte {
	out := make([]byte, 0, Bits*2*HashSize)
	for i := 0; i < Bits; i++ {
		out = append(out, pk.pk[i][0]...)
		out = append(out, pk.pk[i][1]...)
	}
	return out
}

// UnmarshalPublicKey parses a Marshal output.
func UnmarshalPublicKey(data []byte) (*PublicKey, error) {
	if len(data) != Bits*2*HashSize {
		return nil, fmt.Errorf("lamport: public key must be %d bytes, got %d", Bits*2*HashSize, len(data))
	}
	pk := &PublicKey{}
	for i := 0; i < Bits; i++ {
		off := i * 2 * HashSize
		pk.pk[i][0] = append([]byte(nil), data[off:off+HashSize]...)
		pk.pk[i][1] = append([]byte(nil), data[off+HashSize:off+2*HashSize]...)
	}
	return pk, nil
}

// MarshalSignature flattens a signature for transmission.
func (s *Signature) Marshal() []byte {
	out := make([]byte, 0, Bits*HashSize)
	for i := 0; i < Bits; i++ {
		out = append(out, s.sig[i]...)
	}
	return out
}

// UnmarshalSignature parses a Marshal output.
func UnmarshalSignature(data []byte) (*Signature, error) {
	if len(data) != Bits*HashSize {
		return nil, fmt.Errorf("lamport: signature must be %d bytes, got %d", Bits*HashSize, len(data))
	}
	s := &Signature{}
	for i := 0; i < Bits; i++ {
		s.sig[i] = append([]byte(nil), data[i*HashSize:(i+1)*HashSize]...)
	}
	return s, nil
}
