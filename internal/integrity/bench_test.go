package integrity

import (
	"testing"

	"memverify/internal/cache"
	"memverify/internal/trace"
)

// benchEngine builds a functional rig for engine micro-benchmarks.
func benchEngine(b *testing.B, scheme string) (*rig, []uint64) {
	b.Helper()
	r := newRig(b, defaultRig(scheme))
	return r, r.dataBlocks()
}

func BenchmarkEngineReadMiss(b *testing.B) {
	for _, scheme := range []string{"base", "naive", "c", "m", "i"} {
		scheme := scheme
		b.Run(scheme, func(b *testing.B) {
			r, blocks := benchEngine(b, scheme)
			rng := trace.NewRNG(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ba := blocks[rng.Intn(len(blocks))]
				ln := r.sys.L2.Invalidate(ba)
				r.sys.L2.Release(&ln)
				r.read(ba)
			}
		})
	}
}

func BenchmarkEngineWriteBack(b *testing.B) {
	for _, scheme := range []string{"c", "m", "i"} {
		scheme := scheme
		b.Run(scheme, func(b *testing.B) {
			r, blocks := benchEngine(b, scheme)
			data := make([]byte, r.sys.BlockSize())
			for i := 0; i < b.N; i++ {
				ba := blocks[i%len(blocks)]
				r.write(ba, data)
				victim := r.sys.L2.Invalidate(ba)
				evictAndRelease(r.sys.L2, r.now, victim, r.engine.Evict)
			}
		})
	}
}

// BenchmarkMissWalk is the engines' steady-state miss path as the L2 sees
// it: random blocks over a region 8× the cache, half of them stores, so
// nearly every access misses, most fills evict and about half the victims
// are dirty and take the write-back walk. The driver itself allocates
// nothing, so allocs/op is the engine's own number — 0 once line buffers,
// chunk images and records all change hands.
func BenchmarkMissWalk(b *testing.B) {
	for _, scheme := range protectedSchemes {
		scheme := scheme
		b.Run(scheme, func(b *testing.B) {
			r, blocks := benchEngine(b, scheme)
			rng := trace.NewRNG(1)
			access := func() {
				ba := blocks[rng.Intn(len(blocks))]
				r.now += 3
				if rng.Intn(2) == 0 {
					if r.sys.L2.Read(ba, cache.Data) == nil {
						r.now = r.engine.ReadBlock(r.now, ba)
					}
					return
				}
				ln := r.sys.L2.Write(ba, cache.Data)
				for ln == nil {
					r.now = r.engine.ReadBlock(r.now, ba)
					ln = r.sys.L2.Write(ba, cache.Data)
				}
				r.sys.L2.Bytes(ln)[0]++
			}
			for i := 0; i < 4*len(blocks); i++ {
				access() // fill the cache and grow the pools to their depth
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				access()
			}
			if r.sys.Stat.Violations != 0 {
				b.Fatalf("violations on honest traffic: %v", r.sys.First)
			}
		})
	}
}
