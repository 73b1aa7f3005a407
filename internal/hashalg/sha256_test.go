package hashalg

import (
	"bytes"
	cryptosha256 "crypto/sha256"
	"encoding/hex"
	"testing"
)

// fips180Vectors are the SHA-256 examples of FIPS 180-4 (and the empty
// message).
var fips180Vectors = []struct{ in, out string }{
	{"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
	{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq", "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
}

func TestSHA256Vectors(t *testing.T) {
	var s SHA256
	for _, v := range fips180Vectors {
		if got := hex.EncodeToString(s.Sum([]byte(v.in))); got != v.out {
			t.Errorf("SHA256(%q) = %s, want %s", v.in, got, v.out)
		}
	}
	data := make([]byte, 200)
	for i := range data {
		data[i] = byte(i * 7)
	}
	for n := 0; n <= len(data); n++ {
		want := cryptosha256.Sum256(data[:n])
		if got := s.Sum(data[:n]); !bytes.Equal(got, want[:]) {
			t.Fatalf("length %d: got %x want %x", n, got, want)
		}
	}
	if s.Size() != 32 || s.Name() != "sha256" {
		t.Errorf("Size() = %d, Name() = %q", s.Size(), s.Name())
	}
	if a, err := New("sha256"); err != nil || a != (SHA256{}) {
		t.Errorf(`New("sha256") = %v, %v`, a, err)
	}
}
