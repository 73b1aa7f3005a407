package memverify

// One benchmark per table and figure of the paper's evaluation section:
// each runs the same code cmd/figures uses, at a reduced per-point budget
// so `go test -bench=.` completes in minutes. IPC-style results are
// attached as custom benchmark metrics; run cmd/figures for the full
// tables.

import (
	"flag"
	"io"
	"testing"

	"memverify/internal/figures"
	"memverify/internal/prefetch"
	"memverify/internal/stats"
	"memverify/internal/telemetry"
	"memverify/internal/trace"
)

// benchWorkers selects the figure benchmarks' sweep parallelism; the
// default mirrors cmd/figures (all cores). `go test -bench Fig -workers 1`
// measures the serial reference.
var benchWorkers = flag.Int("workers", 0, "concurrent simulations in figure benchmarks (0 = all cores)")

// benchParams is the reduced per-point budget used by the benchmarks.
func benchParams() figures.Params {
	return figures.Params{
		Instructions: 30_000,
		Warmup:       20_000,
		Seed:         1,
		Benchmarks:   trace.Benchmarks,
		Workers:      *benchWorkers,
		Progress:     io.Discard,
	}
}

// run executes one simulation and reports its IPC as a metric.
func reportIPC(b *testing.B, name string, ipc float64) {
	b.ReportMetric(ipc, name+"-IPC")
}

// BenchmarkTable1Params measures machine construction under the paper's
// architectural parameters (Table 1).
func BenchmarkTable1Params(b *testing.B) {
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := NewMachine(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3 regenerates Figure 3 (IPC of base/c/naive) for each of the
// paper's six L2 configurations.
func BenchmarkFig3(b *testing.B) {
	for _, cc := range figures.Fig3Configs {
		cc := cc
		name := sizeName(cc.L2Size) + "-" + blockName(cc.L2Block)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := benchParams()
				t := p.Fig3(cc)
				_ = t.String()
			}
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1<<20:
		return itoa(n>>20) + "MB"
	default:
		return itoa(n>>10) + "KB"
	}
}

func blockName(n int) string { return itoa(n) + "B" }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkFig4 regenerates Figure 4 (program-data miss rates, base vs c).
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchParams()
		_ = p.Fig4().String()
	}
}

// BenchmarkFig5 regenerates Figure 5 (extra accesses per miss and
// normalized bandwidth).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchParams()
		_ = p.Fig5().String()
	}
}

// BenchmarkFig6 regenerates Figure 6 (IPC vs hash throughput).
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchParams()
		_ = p.Fig6().String()
	}
}

// BenchmarkFig7 regenerates Figure 7 (IPC vs hash buffer size).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchParams()
		_ = p.Fig7().String()
	}
}

// BenchmarkFig8 regenerates Figure 8 (c-64B / c-128B / m-64B / i-64B).
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchParams()
		_ = p.Fig8().String()
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (simulated
// instructions per second) for each scheme on one workload — the number
// that decides how large a figure budget is affordable.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for _, s := range []Scheme{SchemeBase, SchemeCached, SchemeNaive} {
		s := s
		b.Run(string(s), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Scheme = s
			cfg.Benchmark = trace.Swim
			cfg.Instructions = 50_000
			cfg.Warmup = 0
			var lastIPC float64
			b.SetBytes(int64(cfg.Instructions)) // bytes ~ instructions
			// Allocation regression gate: the per-access hot path must not
			// allocate; what remains is one-time machine construction.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mt, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				lastIPC = mt.IPC
			}
			reportIPC(b, string(s), lastIPC)
		})
	}
}

// BenchmarkFunctionalThroughput measures functional-simulation speed —
// real data movement plus verification — for each protected scheme under
// both hash-execution modes. The full/timing ratio is the speedup
// EXPERIMENTS.md quotes for timing-only execution.
func BenchmarkFunctionalThroughput(b *testing.B) {
	for _, s := range []Scheme{SchemeNaive, SchemeCached, SchemeMulti, SchemeIncr} {
		for _, mode := range []string{"full", "timing"} {
			s, mode := s, mode
			b.Run(string(s)+"/"+mode, func(b *testing.B) {
				cfg := DefaultConfig()
				cfg.Scheme = s
				cfg.Benchmark = trace.Art
				// Construction (tree initialization) plus a steady-state
				// stretch — the same mix every functional sweep point pays.
				cfg.Instructions = 100_000
				cfg.Warmup = 0
				cfg.Functional = true
				cfg.HashMode = mode
				cfg.HashAlg = "md5"
				cfg.ProtectedBytes = 8 << 20
				if s == SchemeMulti || s == SchemeIncr {
					cfg.ChunkBlocks = 2
				}
				var lastIPC float64
				b.SetBytes(int64(cfg.Instructions)) // bytes ~ instructions
				for i := 0; i < b.N; i++ {
					mt, err := Run(cfg)
					if err != nil {
						b.Fatal(err)
					}
					lastIPC = mt.IPC
				}
				reportIPC(b, string(s), lastIPC)
			})
		}
	}
}

// BenchmarkTelemetryOverhead pins the observability layer's throughput
// contract: "disabled" runs the same workload as SimulatorThroughput/c
// with no recorder attached (this must stay within 2% of an
// uninstrumented build — ci.sh compares it against SimulatorThroughput),
// while "enabled" attaches a full recorder so the cost of tracing is
// visible; scripts/bench_telemetry.sh records the ratio in
// BENCH_telemetry.json.
func BenchmarkTelemetryOverhead(b *testing.B) {
	base := func() Config {
		cfg := DefaultConfig()
		cfg.Scheme = SchemeCached
		cfg.Benchmark = trace.Swim
		cfg.Instructions = 50_000
		cfg.Warmup = 0
		return cfg
	}
	b.Run("disabled", func(b *testing.B) {
		cfg := base()
		b.SetBytes(int64(cfg.Instructions))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		cfg := base()
		b.SetBytes(int64(cfg.Instructions))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// A fresh small ring per run keeps iterations independent.
			cfg.Telemetry = telemetry.NewRecorder(1 << 16)
			if _, err := Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPrefetch measures what tree-ancestor prefetching and a
// dedicated verification cache buy on a tree-walk-bound configuration: a
// tiny direct-mapped L2 streaming through a working set far larger than
// the cache, so nearly every access misses and pays an ancestor walk.
// The IPC metric is simulated throughput — the quantity prefetching
// improves (prefetch fills overlap demand work in simulated time);
// wall-clock ns/op necessarily grows slightly because the simulator
// executes the extra prefetch machinery. scripts/bench_prefetch.sh
// records the off/on IPC ratios in BENCH_prefetch.json.
func BenchmarkPrefetch(b *testing.B) {
	base := func() Config {
		cfg := DefaultConfig()
		cfg.Scheme = SchemeCached
		// Strided sweeps jumping a whole record block per touch (so every
		// miss climbs fresh ancestors), spaced by hot-set compute that
		// leaves the bus idle between misses — latency-bound, which is the
		// regime ancestor prefetching targets. The high hot fraction is
		// what creates the bus slack: at lower values the walk traffic
		// saturates the FIFO bus and prefetches merely reorder the queue.
		cfg.Benchmark = trace.Profile{
			Name: "treewalk",
			Load: 0.30, Store: 0.02,
			WorkingSet: 32 << 20, HotSet: 4 << 10, HotFrac: 0.99,
			SeqFrac: 1.0, SeqStride: 4096, Streams: 1,
			DepNear: 0.6,
		}
		cfg.Instructions = 50_000
		cfg.Warmup = 0
		cfg.ProtectedBytes = 64 << 20
		cfg.L2Size = 16 << 10
		cfg.L2Ways = 2
		return cfg
	}
	on := prefetch.DefaultConfig()
	on.Enabled = true
	for _, v := range []struct {
		name string
		pf   prefetch.Config
		vc   int
	}{
		{"off/shared", prefetch.Config{}, 0},
		{"on/shared", on, 0},
		{"off/dedicated", prefetch.Config{}, 64},
		{"on/dedicated", on, 64},
	} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			cfg := base()
			cfg.Prefetch = v.pf
			cfg.VerifyCacheLines = v.vc
			cfg.VerifyCacheAssoc = 4
			var lastIPC float64
			b.SetBytes(int64(cfg.Instructions)) // bytes ~ instructions
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mt, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				lastIPC = mt.IPC
			}
			reportIPC(b, "stream", lastIPC)
		})
	}
}

// BenchmarkGeoMeanOverheads reports the geometric-mean c/base IPC ratio
// over all nine benchmarks at the default 1 MB configuration — the
// paper's headline "less than X%" number, as a benchmark metric.
func BenchmarkGeoMeanOverheads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var ratios []float64
		for _, bench := range trace.Benchmarks {
			var ipc [2]float64
			for j, s := range []Scheme{SchemeBase, SchemeCached} {
				cfg := DefaultConfig()
				cfg.Scheme = s
				cfg.Benchmark = bench
				cfg.Instructions = 30_000
				cfg.Warmup = 20_000
				mt, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				ipc[j] = mt.IPC
			}
			ratios = append(ratios, ipc[1]/ipc[0])
		}
		b.ReportMetric(stats.GeoMean(ratios), "c/base-geomean")
	}
}
