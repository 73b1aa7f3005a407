package figures

import (
	"fmt"

	"memverify/internal/core"
	"memverify/internal/stats"
)

// Ablation studies for the design choices the paper fixes by fiat: tree
// arity (the external-memory-overhead vs performance tradeoff the
// abstract promises), hash-unit latency (§6.2 claims longer latencies are
// absorbed by deeper buffers), L2 associativity (hash/data contention is
// a replacement phenomenon) and protected-region size (the naive scheme's
// log N cost against the cached scheme's locality).

// AblationVCLines is the dedicated verification cache sized for the
// dedicated-vs-shared sweep, in L2-block lines (128 × 64 B = 8 KB).
const AblationVCLines = 128

// AblationVerifyCache sweeps where the tree nodes live — sharing the L2
// with program data (the paper's arrangement, where hash lines pollute
// the working set) against a small dedicated verification cache. A
// deliberately small L2 (256 KB) makes the contention visible: that is
// where evicting data for hashes hurts and where a dedicated cache buys
// the most back.
func (p Params) AblationVerifyCache() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Ablation: dedicated verification cache (%d lines) vs shared L2 (scheme c, 256KB L2, 64B)", AblationVCLines),
		"bench", "shared", "dedicated", "dedicated/shared")
	var pts []point
	for _, b := range p.benches() {
		for _, vc := range []bool{false, true} {
			vc := vc
			pts = append(pts, point{b, func(c *core.Config) {
				schemeCfg(core.SchemeCached)(c)
				c.L2Size = 256 << 10
				if vc {
					c.VerifyCacheLines = AblationVCLines
					c.VerifyCacheAssoc = 4
				}
			}})
		}
	}
	mts := p.runAll(pts)
	for bi, b := range p.benches() {
		shared, dedicated := mts[2*bi].IPC, mts[2*bi+1].IPC
		t.AddRow(b.Name, shared, dedicated, dedicated/shared)
	}
	return t
}

// AblationArities are the stored-record sizes swept: 8 B records give an
// 8-ary tree (1/7 of memory for hashes), 16 B a 4-ary tree (1/3).
var AblationArities = []int{8, 16}

// AblationArity sweeps tree arity via the stored hash size for scheme c.
func (p Params) AblationArity() *stats.Table {
	t := stats.NewTable("Ablation: tree arity via hash size (scheme c, 1MB, 64B)",
		"bench", "IPC 8B-hash (8-ary)", "IPC 16B-hash (4-ary)", "extra/miss 8B", "extra/miss 16B")
	var pts []point
	for _, b := range p.benches() {
		for _, hs := range AblationArities {
			hs := hs
			pts = append(pts, point{b, func(c *core.Config) {
				schemeCfg(core.SchemeCached)(c)
				c.HashSize = hs
			}})
		}
	}
	mts := p.runAll(pts)
	for bi, b := range p.benches() {
		row := mts[bi*len(AblationArities):]
		t.AddRow(b.Name, row[0].IPC, row[1].IPC, extraPerMiss(row[0]), extraPerMiss(row[1]))
	}
	return t
}

// AblationHashLatencies are the pipeline depths swept, in cycles.
var AblationHashLatencies = []uint64{20, 80, 160, 320}

// AblationHashLatency sweeps the hash pipeline latency, scaling the
// buffers proportionally as §6.2 prescribes ("longer latency
// implementations could be accommodated ... by adding a proportional
// number of entries in the buffers").
func (p Params) AblationHashLatency() *stats.Table {
	t := stats.NewTable("Ablation: hash latency with proportional buffers (scheme c, 1MB, 64B)",
		"bench", "20cy/4buf", "80cy/16buf", "160cy/32buf", "320cy/64buf")
	var pts []point
	for _, b := range p.benches() {
		for _, lat := range AblationHashLatencies {
			lat := lat
			pts = append(pts, point{b, func(c *core.Config) {
				schemeCfg(core.SchemeCached)(c)
				c.HashLatency = lat
				c.HashBuffers = int(lat / 5)
			}})
		}
	}
	mts := p.runAll(pts)
	for bi, b := range p.benches() {
		row := []interface{}{b.Name}
		for i := range AblationHashLatencies {
			row = append(row, mts[bi*len(AblationHashLatencies)+i].IPC)
		}
		t.AddRow(row...)
	}
	return t
}

// AblationAssocs are the L2 associativities swept.
var AblationAssocs = []int{1, 2, 4, 8}

// AblationAssoc sweeps L2 associativity for base and c: contention between
// hash and data lines is a replacement phenomenon, so higher associativity
// softens it.
func (p Params) AblationAssoc() *stats.Table {
	t := stats.NewTable("Ablation: L2 associativity (1MB, 64B), IPC base/c per way count",
		"bench", "1-way c/base", "2-way c/base", "4-way c/base", "8-way c/base")
	var pts []point
	for _, b := range p.benches() {
		for _, ways := range AblationAssocs {
			for _, s := range []core.Scheme{core.SchemeBase, core.SchemeCached} {
				ways, s := ways, s
				pts = append(pts, point{b, func(c *core.Config) {
					schemeCfg(s)(c)
					c.L2Ways = ways
				}})
			}
		}
	}
	mts := p.runAll(pts)
	for bi, b := range p.benches() {
		row := []interface{}{b.Name}
		for wi := range AblationAssocs {
			pair := mts[(bi*len(AblationAssocs)+wi)*2:]
			row = append(row, fmt.Sprintf("%.3f", pair[1].IPC/pair[0].IPC))
		}
		t.AddRow(row...)
	}
	return t
}

// AblationProtectedSizes are the protected-region sizes swept.
var AblationProtectedSizes = []uint64{256 << 20, 1 << 30, 4 << 30, 16 << 30}

// AblationTreeDepth sweeps the protected-region size: the naive scheme's
// extra reads grow with log N (the tree deepens), while the cached
// scheme's stay flat — the core scaling argument of §5.3.
func (p Params) AblationTreeDepth() *stats.Table {
	t := stats.NewTable("Ablation: protected size vs extra reads per miss (256MB..16GB, 1MB L2)",
		"bench", "naive 256MB", "naive 1GB", "naive 4GB", "naive 16GB",
		"c 256MB", "c 1GB", "c 4GB", "c 16GB")
	var pts []point
	for _, b := range p.benches() {
		for _, s := range []core.Scheme{core.SchemeNaive, core.SchemeCached} {
			for _, sz := range AblationProtectedSizes {
				s, sz := s, sz
				pts = append(pts, point{b, func(c *core.Config) {
					schemeCfg(s)(c)
					c.ProtectedBytes = sz
				}})
			}
		}
	}
	mts := p.runAll(pts)
	perBench := 2 * len(AblationProtectedSizes)
	for bi, b := range p.benches() {
		row := []interface{}{b.Name}
		for i := 0; i < perBench; i++ {
			row = append(row, extraPerMiss(mts[bi*perBench+i]))
		}
		t.AddRow(row...)
	}
	return t
}
