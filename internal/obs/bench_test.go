package obs

import (
	"testing"
	"time"

	"memverify/internal/core"
	"memverify/internal/shard"
	"memverify/internal/telemetry"
	"memverify/internal/trace"
)

// benchStore builds a small functional sharded store — the shape a
// memverifyd tenant serves — so the benchmark measures the ops surface's
// cost on the real Fill path (FillRegistry routed through the shard
// workers).
func benchStore(b *testing.B) *shard.Store {
	b.Helper()
	cfg := core.DefaultConfig()
	cfg.Scheme = core.SchemeCached
	cfg.Benchmark = trace.Uniform("obsbench", 32<<10)
	cfg.Benchmark.CodeSet = 4 << 10
	cfg.ProtectedBytes = 1 << 20
	cfg.L2Size = 32 << 10
	cfg.Functional = true
	s, err := shard.New(shard.Config{Machine: cfg, Shards: 2})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func driveOps(b *testing.B, s *shard.Store) {
	b.Helper()
	buf := make([]byte, 64)
	span := s.Span()
	for i := 0; i < b.N; i++ {
		off := (uint64(i) * 8192) % (span - 64)
		if err := s.StoreBytes(off, buf); err != nil {
			b.Fatal(err)
		}
		if err := s.LoadBytes(off, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreOpsBaseline is the reference: store traffic with the ops
// surface disabled (nothing constructed — the production default).
func BenchmarkStoreOpsBaseline(b *testing.B) {
	s := benchStore(b)
	defer s.Close()
	b.ResetTimer()
	driveOps(b, s)
}

// BenchmarkStoreOpsEnabledUnscraped is the overhead gate's shape: the
// sampler ticks against the live store at the default cadence but nobody
// scrapes — memverifyd between scrapes. Compare against
// BenchmarkStoreOpsBaseline; ci.sh's ops overhead gate prints the ratio
// against the 2% budget and fails past 25%.
func BenchmarkStoreOpsEnabledUnscraped(b *testing.B) {
	s := benchStore(b)
	defer s.Close()
	sampler := NewSampler(func(reg *telemetry.Registry) { s.FillRegistry(reg) },
		DefaultSampleEvery, DefaultRingPoints)
	sampler.Start()
	b.ResetTimer()
	driveOps(b, s)
	b.StopTimer()
	sampler.Stop()
}

// BenchmarkSamplerRound prices one sampling round (fill + rate/ring
// update) against a registry of typical size, independent of cadence.
func BenchmarkSamplerRound(b *testing.B) {
	s := benchStore(b)
	defer s.Close()
	sampler := NewSampler(func(reg *telemetry.Registry) { s.FillRegistry(reg) },
		time.Hour, DefaultRingPoints)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sampler.SampleNow()
	}
}
