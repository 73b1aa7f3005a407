package hashalg

import (
	"bytes"
	cryptosha1 "crypto/sha1"
	"encoding/hex"
	"strings"
	"testing"
)

// rfc3174Vectors are from RFC 3174 §7.3 plus FIPS 180 examples.
var rfc3174Vectors = []struct{ in, out string }{
	{"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
	{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq", "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
	{strings.Repeat("a", 1000000), "34aa973cd4c4daa4f61eeb2bdbad27316534016f"},
	{strings.Repeat("0123456701234567012345670123456701234567012345670123456701234567", 10), "dea356a2cddd90c7a7ecedc5ebb563934f460452"},
	{"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
}

func TestSHA1RFC3174Vectors(t *testing.T) {
	var s SHA1
	for _, v := range rfc3174Vectors {
		got := hex.EncodeToString(s.Sum([]byte(v.in)))
		if got != v.out {
			t.Errorf("SHA1(%.20q... len %d) = %s, want %s", v.in, len(v.in), got, v.out)
		}
	}
}

func TestSHA1AllLengthsAroundBlockBoundary(t *testing.T) {
	var s SHA1
	data := make([]byte, 200)
	for i := range data {
		data[i] = byte(i * 13)
	}
	for n := 0; n <= len(data); n++ {
		want := cryptosha1.Sum(data[:n])
		if got := s.Sum(data[:n]); !bytes.Equal(got, want[:]) {
			t.Fatalf("length %d: got %x want %x", n, got, want)
		}
	}
}

func TestSHA1Properties(t *testing.T) {
	var s SHA1
	if s.Size() != 20 {
		t.Errorf("Size() = %d, want 20", s.Size())
	}
	if s.Name() != "sha1" {
		t.Errorf("Name() = %q", s.Name())
	}
}

func TestNewRegistry(t *testing.T) {
	for _, name := range []string{"md5", "sha1", "fnv128"} {
		a, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if a.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, a.Name())
		}
		if got := a.Sum([]byte("x")); len(got) != a.Size() {
			t.Errorf("%s: digest length %d != Size %d", name, len(got), a.Size())
		}
	}
	if _, err := New("nope"); err == nil {
		t.Error("New(nope) succeeded, want error")
	}
}

func TestTruncate(t *testing.T) {
	d := []byte{1, 2, 3, 4, 5}
	got := Truncate(d, 3)
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Truncate = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Truncate beyond length did not panic")
		}
	}()
	Truncate(d, 6)
}
