package hashalg

import "crypto/sha256"

// SHA256 is the SHA-256 secure hash algorithm of FIPS 180-4, computed by
// the standard library. Its 32-byte digest is truncated to the record
// (Truncate) like every other. The zero value is ready to use; SHA256
// values are stateless.
type SHA256 struct{}

// Name implements Algorithm.
func (SHA256) Name() string { return "sha256" }

// Size implements Algorithm. SHA-256 digests are 32 bytes.
func (SHA256) Size() int { return sha256.Size }

// Sum implements Algorithm.
func (s SHA256) Sum(data []byte) []byte { return s.AppendSum(nil, data) }

// AppendSum implements Algorithm. The digest is an array on the stack, so
// the call allocates only when dst lacks spare capacity.
func (SHA256) AppendSum(dst, data []byte) []byte {
	s := sha256.Sum256(data)
	return append(dst, s[:]...)
}
