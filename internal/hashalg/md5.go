package hashalg

import "crypto/md5"

// MD5 is the MD5 message-digest algorithm of RFC 1321, computed by the
// standard library. The zero value is ready to use; MD5 values are
// stateless.
type MD5 struct{}

// Name implements Algorithm.
func (MD5) Name() string { return "md5" }

// Size implements Algorithm. MD5 digests are 16 bytes.
func (MD5) Size() int { return md5.Size }

// Sum implements Algorithm.
func (m MD5) Sum(data []byte) []byte { return m.AppendSum(nil, data) }

// AppendSum implements Algorithm. The digest is an array on the stack, so
// the call allocates only when dst lacks spare capacity.
func (MD5) AppendSum(dst, data []byte) []byte {
	s := md5.Sum(data)
	return append(dst, s[:]...)
}
