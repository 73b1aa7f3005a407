package hashalg

import (
	"bytes"
	cryptomd5 "crypto/md5"
	"encoding/hex"
	"testing"
)

// rfc1321Vectors are the test suite from RFC 1321 appendix A.5.
var rfc1321Vectors = []struct{ in, out string }{
	{"", "d41d8cd98f00b204e9800998ecf8427e"},
	{"a", "0cc175b9c0f1b6a831c399e269772661"},
	{"abc", "900150983cd24fb0d6963f7d28e17f72"},
	{"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
	{"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"},
	{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789", "d174ab98d277d9f5a5611c2c9f419d9f"},
	{"12345678901234567890123456789012345678901234567890123456789012345678901234567890", "57edf4a22be3c955ac49da2e2107b67a"},
}

func TestMD5RFC1321Vectors(t *testing.T) {
	var m MD5
	for _, v := range rfc1321Vectors {
		got := hex.EncodeToString(m.Sum([]byte(v.in)))
		if got != v.out {
			t.Errorf("MD5(%q) = %s, want %s", v.in, got, v.out)
		}
	}
}

func TestMD5AllLengthsAroundBlockBoundary(t *testing.T) {
	var m MD5
	data := make([]byte, 200)
	for i := range data {
		data[i] = byte(i * 7)
	}
	for n := 0; n <= len(data); n++ {
		want := cryptomd5.Sum(data[:n])
		if got := m.Sum(data[:n]); !bytes.Equal(got, want[:]) {
			t.Fatalf("length %d: got %x want %x", n, got, want)
		}
	}
}

func TestMD5Properties(t *testing.T) {
	var m MD5
	if m.Size() != 16 {
		t.Errorf("Size() = %d, want 16", m.Size())
	}
	if m.Name() != "md5" {
		t.Errorf("Name() = %q", m.Name())
	}
	a := m.Sum([]byte("hello"))
	b := m.Sum([]byte("hello"))
	if !bytes.Equal(a, b) {
		t.Error("MD5 not deterministic")
	}
	c := m.Sum([]byte("hellp"))
	if bytes.Equal(a, c) {
		t.Error("single-character change did not alter digest")
	}
}

func BenchmarkMD5Chunk64(b *testing.B) {
	var m MD5
	data := make([]byte, 64)
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		m.Sum(data)
	}
}
