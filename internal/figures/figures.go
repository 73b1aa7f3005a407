// Package figures regenerates every table and figure of the paper's
// evaluation section (§6) from fresh simulations: the IPC comparisons of
// Figure 3, the miss-rate study of Figure 4, the extra-accesses and
// bandwidth analysis of Figure 5, the hash-throughput and buffer-size
// sweeps of Figures 6 and 7, and the reduced-memory-overhead schemes of
// Figure 8. Both cmd/figures and the repository's benchmark suite drive
// this package, so the printed output and the bench results come from the
// same code.
package figures

import (
	"fmt"
	"io"
	"math"

	"memverify/internal/core"
	"memverify/internal/stats"
	"memverify/internal/sweep"
	"memverify/internal/telemetry"
	"memverify/internal/trace"
)

// Params sets the per-point simulation budget.
type Params struct {
	Instructions uint64
	Warmup       uint64
	Seed         uint64
	// Benchmarks defaults to the paper's nine SPEC profiles.
	Benchmarks []trace.Profile
	// Workers sets how many simulations run concurrently: 0 uses every
	// core, 1 runs serially. Output is identical either way — each figure
	// submits its whole batch to the sweep pool, which streams results in
	// submission order.
	Workers int
	// Progress, when non-nil, receives one line per completed run, in
	// submission order even under parallel execution.
	Progress io.Writer
	// Observer, when non-nil, receives every run's configuration and
	// metrics — the hook cmd/figures uses to emit machine-readable CSV
	// alongside the tables. Calls arrive in submission order, serialized
	// on one goroutine.
	Observer func(cfg core.Config, mt core.Metrics)
	// Telemetry, when non-nil, attaches the recorder to every point's
	// machine. A recorder is single-goroutine, so runAll forces the sweep
	// serial while one is attached (Workers is ignored).
	Telemetry *telemetry.Recorder
	// Meter, when non-nil, shows live sweep progress on its writer: points
	// completed, throughput and ETA (cmd/figures -progress).
	Meter *telemetry.Meter
}

// DefaultParams returns a budget that completes the full figure suite in
// minutes on one core while preserving every figure's shape.
func DefaultParams() Params {
	return Params{Instructions: 200_000, Warmup: 150_000, Seed: 1, Benchmarks: trace.Benchmarks}
}

func (p *Params) benches() []trace.Profile {
	if len(p.Benchmarks) > 0 {
		return p.Benchmarks
	}
	return trace.Benchmarks
}

// point is one simulation of a figure's batch: a benchmark plus the
// configuration overrides that place it in the figure.
type point struct {
	bench  trace.Profile
	mutate func(*core.Config)
}

// config materializes a point's full configuration.
func (p *Params) config(pt point) core.Config {
	cfg := core.DefaultConfig()
	cfg.Benchmark = pt.bench
	cfg.Instructions = p.Instructions
	cfg.Warmup = p.Warmup
	cfg.Seed = p.Seed
	pt.mutate(&cfg)
	cfg.Telemetry = p.Telemetry
	return cfg
}

// runAll executes a batch of points on the sweep pool and returns the
// metrics in submission order. Every configuration is validated up front,
// so a bad point panics before any simulation starts — the same failure
// point a serial run had. Progress and Observer fire in submission order
// regardless of the worker count.
func (p *Params) runAll(pts []point) []core.Metrics {
	cfgs := make([]core.Config, len(pts))
	for i, pt := range pts {
		cfgs[i] = p.config(pt)
		if err := cfgs[i].Validate(); err != nil {
			panic(fmt.Sprintf("figures: invalid configuration for %s: %v", pt.bench.Name, err))
		}
	}
	workers := p.Workers
	if p.Telemetry != nil {
		// The recorder is single-goroutine: tracing a sweep serializes it.
		workers = 1
	}
	pool := sweep.New(workers)
	pool.Meter = p.Meter
	mts, err := pool.Run(cfgs, func(_ int, cfg core.Config, mt core.Metrics) {
		if p.Progress != nil {
			fmt.Fprintf(p.Progress, "  %s\n", mt)
		}
		if p.Observer != nil {
			p.Observer(cfg, mt)
		}
	})
	if err != nil {
		// Unreachable: validation above is core.Run's only error source.
		panic(fmt.Sprintf("figures: run failed: %v", err))
	}
	return mts
}

// runOne executes a single configured simulation.
func (p *Params) runOne(bench trace.Profile, mutate func(*core.Config)) core.Metrics {
	return p.runAll([]point{{bench, mutate}})[0]
}

// CSVHeader is the column list WriteCSVRow emits values for.
const CSVHeader = "bench,scheme,l2_bytes,block_bytes,chunk_blocks,hash_gbps,hash_buffers,protected_bytes,ipc,l2_data_missrate,extra_per_miss,extra_per_miss_all,bus_bytes,bus_hash_bytes,bus_utilization,dram_reads,dram_writes,violations"

// WriteCSVRow renders one run in CSVHeader's column order. A run with no
// L2 data miss has no extra reads per miss: both columns read n/a.
func WriteCSVRow(w io.Writer, cfg core.Config, mt core.Metrics) {
	epm, epmAll := "n/a", "n/a"
	if mt.L2DataMisses > 0 {
		epm, epmAll = fmt.Sprintf("%.4f", mt.ExtraPerMiss), fmt.Sprintf("%.4f", mt.ExtraPerMissAll)
	}
	fmt.Fprintf(w, "%s,%s,%d,%d,%d,%.2f,%d,%d,%.5f,%.6f,%s,%s,%d,%d,%.5f,%d,%d,%d\n",
		cfg.Benchmark.Name, cfg.Scheme, cfg.L2Size, cfg.L2Block, cfg.ChunkBlocks,
		cfg.HashBytesPerCycle, cfg.HashBuffers, cfg.ProtectedBytes,
		mt.IPC, mt.DataMissRate, epm, epmAll,
		mt.BusBytes, mt.BusHashBytes, mt.BusUtilization,
		mt.DRAMReads, mt.DRAMWrites, mt.Violations)
}

// extraPerMiss is mt's read-path extra blocks per L2 data miss, or NaN
// (a table prints "-") when the run never missed: no misses is no
// evidence, not zero extra reads.
func extraPerMiss(mt core.Metrics) float64 {
	if mt.L2DataMisses == 0 {
		return math.NaN()
	}
	return mt.ExtraPerMiss
}

// ratio is a/b, or NaN (a table prints "-") when b is zero.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return float64(a) / float64(b)
}

func schemeCfg(s core.Scheme) func(*core.Config) {
	return func(c *core.Config) {
		c.Scheme = s
		if s == core.SchemeMulti || s == core.SchemeIncr {
			c.ChunkBlocks = 2
		}
	}
}

// Fig3Config is one of the six cache configurations of Figure 3.
type Fig3Config struct {
	L2Size  int
	L2Block int
}

// Fig3Configs are the paper's six L2 configurations, in figure order
// (a)–(f).
var Fig3Configs = []Fig3Config{
	{256 << 10, 64}, {1 << 20, 64}, {4 << 20, 64},
	{256 << 10, 128}, {1 << 20, 128}, {4 << 20, 128},
}

// Fig3 reproduces Figure 3: IPC of base, c and naive for one L2
// configuration across all benchmarks.
func (p Params) Fig3(cc Fig3Config) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Figure 3 (%dKB, %dB): IPC of base / c / naive", cc.L2Size>>10, cc.L2Block),
		"bench", "base", "c", "naive", "c/base", "naive/base")
	schemes := []core.Scheme{core.SchemeBase, core.SchemeCached, core.SchemeNaive}
	var pts []point
	for _, b := range p.benches() {
		for _, s := range schemes {
			s := s
			pts = append(pts, point{b, func(c *core.Config) {
				schemeCfg(s)(c)
				c.L2Size = cc.L2Size
				c.L2Block = cc.L2Block
			}})
		}
	}
	mts := p.runAll(pts)
	for bi, b := range p.benches() {
		row := mts[bi*len(schemes):]
		t.AddRow(b.Name, row[0].IPC, row[1].IPC, row[2].IPC,
			row[1].IPC/row[0].IPC, row[2].IPC/row[0].IPC)
	}
	return t
}

// Fig4 reproduces Figure 4: L2 miss rates of program data for base and c,
// with 256 KB and 4 MB caches (64 B blocks).
func (p Params) Fig4() *stats.Table {
	t := stats.NewTable("Figure 4: L2 program-data miss rate (%), 64B blocks",
		"bench", "base-256K", "c-256K", "base-4M", "c-4M")
	var pts []point
	for _, b := range p.benches() {
		for _, size := range []int{256 << 10, 4 << 20} {
			for _, s := range []core.Scheme{core.SchemeBase, core.SchemeCached} {
				size, s := size, s
				pts = append(pts, point{b, func(c *core.Config) {
					schemeCfg(s)(c)
					c.L2Size = size
				}})
			}
		}
	}
	mts := p.runAll(pts)
	for bi, b := range p.benches() {
		row := mts[bi*4:]
		t.AddRow(b.Name, 100*row[0].DataMissRate, 100*row[1].DataMissRate,
			100*row[2].DataMissRate, 100*row[3].DataMissRate)
	}
	return t
}

// Fig5 reproduces Figure 5: (a) additional memory blocks loaded per L2
// miss and (b) memory bandwidth usage normalized to base, for c and naive
// with a 1 MB, 64 B L2.
func (p Params) Fig5() *stats.Table {
	t := stats.NewTable("Figure 5: additional accesses per miss and normalized bandwidth (1MB, 64B)",
		"bench", "extra/miss c", "extra/miss naive", "bandwidth c", "bandwidth naive")
	schemes := []core.Scheme{core.SchemeBase, core.SchemeCached, core.SchemeNaive}
	var pts []point
	for _, b := range p.benches() {
		for _, s := range schemes {
			pts = append(pts, point{b, schemeCfg(s)})
		}
	}
	mts := p.runAll(pts)
	for bi, b := range p.benches() {
		row := mts[bi*len(schemes):]
		base, c, naive := row[0], row[1], row[2]
		t.AddRow(b.Name, extraPerMiss(c), extraPerMiss(naive),
			ratio(c.BusBytes, base.BusBytes), ratio(naive.BusBytes, base.BusBytes))
	}
	return t
}

// Fig6Throughputs are the hash-unit throughputs of Figure 6 in GB/s.
var Fig6Throughputs = []float64{6.4, 3.2, 1.6, 0.8}

// Fig6 reproduces Figure 6: IPC of scheme c as the hash-unit throughput
// varies (1 MB, 64 B L2). 6.4 GB/s is one hash per 10 cycles; 1.6 GB/s
// equals the memory bus bandwidth.
func (p Params) Fig6() *stats.Table {
	t := stats.NewTable("Figure 6: IPC of c vs hash throughput (1MB, 64B)",
		"bench", "6.4 GB/s", "3.2 GB/s", "1.6 GB/s", "0.8 GB/s")
	var pts []point
	for _, b := range p.benches() {
		for _, tp := range Fig6Throughputs {
			tp := tp
			pts = append(pts, point{b, func(c *core.Config) {
				schemeCfg(core.SchemeCached)(c)
				c.HashBytesPerCycle = tp
			}})
		}
	}
	mts := p.runAll(pts)
	for bi, b := range p.benches() {
		row := []interface{}{b.Name}
		for i := range Fig6Throughputs {
			row = append(row, mts[bi*len(Fig6Throughputs)+i].IPC)
		}
		t.AddRow(row...)
	}
	return t
}

// Fig7Buffers are the read/write buffer sizes of Figure 7.
var Fig7Buffers = []int{1, 2, 4, 8, 16, 32}

// Fig7 reproduces Figure 7: IPC of scheme c as the hash buffer size
// varies (1 MB, 64 B L2).
func (p Params) Fig7() *stats.Table {
	t := stats.NewTable("Figure 7: IPC of c vs hash buffer size (1MB, 64B)",
		"bench", "1", "2", "4", "8", "16", "32")
	var pts []point
	for _, b := range p.benches() {
		for _, n := range Fig7Buffers {
			n := n
			pts = append(pts, point{b, func(c *core.Config) {
				schemeCfg(core.SchemeCached)(c)
				c.HashBuffers = n
			}})
		}
	}
	mts := p.runAll(pts)
	for bi, b := range p.benches() {
		row := []interface{}{b.Name}
		for i := range Fig7Buffers {
			row = append(row, mts[bi*len(Fig7Buffers)+i].IPC)
		}
		t.AddRow(row...)
	}
	return t
}

// Fig8 reproduces Figure 8: IPC of the reduced-memory-overhead schemes —
// c with 64 B and 128 B blocks, and m and i with two 64 B blocks per
// chunk — with a 1 MB L2.
func (p Params) Fig8() *stats.Table {
	t := stats.NewTable("Figure 8: IPC of c-64B / c-128B / m-64B / i-64B (1MB L2)",
		"bench", "c-64B", "c-128B", "m-64B", "i-64B")
	var pts []point
	for _, b := range p.benches() {
		pts = append(pts,
			point{b, schemeCfg(core.SchemeCached)},
			point{b, func(c *core.Config) {
				schemeCfg(core.SchemeCached)(c)
				c.L2Block = 128
			}},
			point{b, schemeCfg(core.SchemeMulti)},
			point{b, schemeCfg(core.SchemeIncr)})
	}
	mts := p.runAll(pts)
	for bi, b := range p.benches() {
		row := mts[bi*4:]
		t.AddRow(b.Name, row[0].IPC, row[1].IPC, row[2].IPC, row[3].IPC)
	}
	return t
}

// Table1 renders the architectural-parameters table.
func (p Params) Table1() string {
	cfg := core.DefaultConfig()
	return cfg.Table1()
}
