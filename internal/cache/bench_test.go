package cache

import "testing"

func BenchmarkReadHit(b *testing.B) {
	c := New(Config{Name: "b", Size: 1 << 20, Ways: 4, BlockSize: 64})
	c.Fill(0x1000, Data, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Read(0x1000, Data)
	}
}

func BenchmarkFillEvict(b *testing.B) {
	c := New(Config{Name: "b", Size: 64 << 10, Ways: 4, BlockSize: 64})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Fill(uint64(i)*64, Data, nil)
	}
}

// BenchmarkFillEvictDataBearing is the L2's fill path as the engines drive
// it: past the first lap every fill evicts, every other victim is dirty,
// leaves with its buffer and is released after its write-back — 0 allocs/op
// once the free list holds the one buffer that is ever out.
func BenchmarkFillEvictDataBearing(b *testing.B) {
	c := New(Config{Name: "b", Size: 64 << 10, Ways: 4, BlockSize: 64, DataBearing: true})
	data := make([]byte, 64)
	b.SetBytes(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		addr := uint64(i) * 64
		ev := c.Fill(addr, Data, data)
		if i&1 == 0 {
			c.Write(addr, Data)
		}
		c.Release(&ev)
	}
}

// vcCache builds the dedicated verification cache's geometry: small (64
// lines), 4-way, data-bearing, holding only Hash-class tree nodes.
func vcCache() *Cache {
	return New(Config{Name: "VC", Size: 64 * 64, Ways: 4, BlockSize: 64, DataBearing: true})
}

func BenchmarkVerifyCacheFill(b *testing.B) {
	c := vcCache()
	data := make([]byte, 64)
	b.SetBytes(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Fill(uint64(i)*64, Hash, data)
	}
}

func BenchmarkVerifyCacheWriteHit(b *testing.B) {
	c := vcCache()
	c.Fill(0x1000, Hash, make([]byte, 64))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Write(0x1000, Hash)
	}
}

// BenchmarkVerifyCacheLookup measures Peek on a resident line — the
// residency probe the integrity engines run through cacheFor(c).Peek when
// they compose a chunk image from its cached blocks, and chaos runs in
// tamperResident.
func BenchmarkVerifyCacheLookup(b *testing.B) {
	c := vcCache()
	c.Fill(0x1000, Hash, make([]byte, 64))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c.Peek(0x1000) == nil {
			b.Fatal("resident line not found")
		}
	}
}

// BenchmarkVerifyCacheLookupMiss is the same probe when the line is
// absent (the case where the engine must read the block from memory).
func BenchmarkVerifyCacheLookupMiss(b *testing.B) {
	c := vcCache()
	c.Fill(0x1000, Hash, make([]byte, 64))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c.Peek(0x2000) != nil {
			b.Fatal("absent line found")
		}
	}
}
