package hashalg

import "crypto/sha1"

// SHA1 is the SHA-1 secure hash algorithm of RFC 3174, computed by the
// standard library. The zero value is ready to use; SHA1 values are
// stateless.
type SHA1 struct{}

// Name implements Algorithm.
func (SHA1) Name() string { return "sha1" }

// Size implements Algorithm. SHA-1 digests are 20 bytes.
func (SHA1) Size() int { return sha1.Size }

// Sum implements Algorithm.
func (s SHA1) Sum(data []byte) []byte { return s.AppendSum(nil, data) }

// AppendSum implements Algorithm. The digest is an array on the stack, so
// the call allocates only when dst lacks spare capacity.
func (SHA1) AppendSum(dst, data []byte) []byte {
	s := sha1.Sum(data)
	return append(dst, s[:]...)
}
