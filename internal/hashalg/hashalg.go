// Package hashalg implements the cryptographic primitives the secure
// processor's hash unit models: MD5 (RFC 1321), SHA-1 (RFC 3174) and
// SHA-256 (FIPS 180-4) from the standard library, a fast
// non-cryptographic 128-bit hash, and the
// incremental XOR-MAC of Bellare, Guérin and Rogaway used by the paper's
// `i` scheme (§5.5).
//
// The paper's hash unit truncates every digest to a fixed "hash length"
// (128 bits in Table 1); Algorithm implementations here expose their native
// digest and callers truncate via Truncate.
package hashalg

import "fmt"

// Algorithm computes a one-shot digest over a byte slice. Implementations
// must be safe for concurrent use by multiple goroutines: every method may
// be called from many goroutines at once with no external locking, which
// in practice means implementations are stateless values whose per-call
// state lives on the stack.
type Algorithm interface {
	// Name returns a short identifier such as "md5" or "sha1".
	Name() string
	// Size returns the digest length in bytes.
	Size() int
	// Sum returns the digest of data in a freshly allocated slice the
	// caller owns; successive calls never alias each other's results.
	Sum(data []byte) []byte
	// AppendSum appends the digest of data to dst and returns the
	// extended slice, allocating nothing when dst has Size() spare
	// capacity. It is the hot-path form of Sum: the result aliases dst's
	// backing array (not internal state), so — like Sum — concurrent
	// calls are safe as long as each goroutine supplies its own dst.
	AppendSum(dst, data []byte) []byte
}

// New returns the algorithm registered under name: "md5", "sha1",
// "sha256" or "fnv128". It returns an error for unknown names.
func New(name string) (Algorithm, error) {
	switch name {
	case "md5":
		return MD5{}, nil
	case "sha1":
		return SHA1{}, nil
	case "sha256":
		return SHA256{}, nil
	case "fnv128":
		return FNV128{}, nil
	}
	return nil, fmt.Errorf("hashalg: unknown algorithm %q", name)
}

// Truncate returns the first n bytes of digest, which must be at least n
// bytes long. It is how the secure processor reduces a native digest to the
// tree's fixed hash length.
func Truncate(digest []byte, n int) []byte {
	if len(digest) < n {
		panic(fmt.Sprintf("hashalg: cannot truncate %d-byte digest to %d bytes", len(digest), n))
	}
	return digest[:n]
}
