package hashalg

import "testing"

func benchAlg(b *testing.B, a Algorithm, n int) {
	data := make([]byte, n)
	b.SetBytes(int64(n))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Sum(data)
	}
}

// benchAppend measures the zero-allocation digest path: the destination
// buffer is reused across iterations, so steady state must report
// 0 allocs/op for every algorithm.
func benchAppend(b *testing.B, a Algorithm, n int) {
	data := make([]byte, n)
	dst := make([]byte, 0, a.Size())
	b.SetBytes(int64(n))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = a.AppendSum(dst[:0], data)
	}
}

func BenchmarkSHA1Chunk64(b *testing.B)   { benchAlg(b, SHA1{}, 64) }
func BenchmarkFNV128Chunk64(b *testing.B) { benchAlg(b, FNV128{}, 64) }
func BenchmarkMD5Chunk4K(b *testing.B)    { benchAlg(b, MD5{}, 4096) }

func BenchmarkSHA1AppendChunk64(b *testing.B)   { benchAppend(b, SHA1{}, 64) }
func BenchmarkSHA256AppendChunk64(b *testing.B) { benchAppend(b, SHA256{}, 64) }
func BenchmarkFNV128AppendChunk64(b *testing.B) { benchAppend(b, FNV128{}, 64) }
func BenchmarkMD5AppendChunk64(b *testing.B)    { benchAppend(b, MD5{}, 64) }
func BenchmarkMD5AppendChunk4K(b *testing.B)    { benchAppend(b, MD5{}, 4096) }

func BenchmarkXorMACCompute(b *testing.B) {
	m := NewXorMAC(MD5{}, []byte("key"))
	blocks := macBlocks(2, 64, 1)
	b.SetBytes(128)
	for i := 0; i < b.N; i++ {
		m.Compute(blocks, 0)
	}
}

func BenchmarkXorMACUpdate(b *testing.B) {
	m := NewXorMAC(MD5{}, []byte("key"))
	blocks := macBlocks(2, 64, 1)
	tag := m.Compute(blocks, 0)
	newBlock := macBlocks(1, 64, 9)[0]
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		tag = m.Update(tag, 0, blocks[0], newBlock)
		blocks[0], newBlock = newBlock, blocks[0]
	}
}

func BenchmarkFeistelEncrypt(b *testing.B) {
	f := NewFeistel(MD5{}, []byte("key"))
	var block [16]byte
	for i := 0; i < b.N; i++ {
		block = f.Encrypt(block)
	}
}
