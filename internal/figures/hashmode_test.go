package figures

import (
	"strings"
	"testing"

	"memverify/internal/core"
	"memverify/internal/trace"
)

// TestFigureOutputIdenticalAcrossHashModes runs a miniature figure batch
// (all five schemes over one benchmark) functionally under each hash
// execution mode and requires byte-identical CSV output: the mode is an
// execution strategy, never a modeling change.
func TestFigureOutputIdenticalAcrossHashModes(t *testing.T) {
	bench := trace.Uniform("hashmode-test", 128<<10)
	bench.CodeSet = 16 << 10
	run := func(mode string) string {
		p := Params{
			Instructions:   20_000,
			Warmup:         5_000,
			Seed:           1,
			Benchmarks:     []trace.Profile{bench},
			Workers:        1,
			Functional:     true,
			HashMode:       mode,
			ProtectedBytes: 1 << 20,
		}
		var sb strings.Builder
		p.Observer = func(cfg core.Config, mt core.Metrics) {
			WriteCSVRow(&sb, cfg, mt)
		}
		var pts []point
		for _, s := range []core.Scheme{core.SchemeBase, core.SchemeCached,
			core.SchemeNaive, core.SchemeMulti, core.SchemeIncr} {
			pts = append(pts, point{bench, func(c *core.Config) {
				schemeCfg(s)(c)
				c.L2Size = 64 << 10
				c.HashAlg = "md5"
			}})
		}
		p.runAll(pts)
		return sb.String()
	}
	full := run("full")
	if !strings.Contains(full, ",base,") || strings.Count(full, "\n") != 5 {
		t.Fatalf("unexpected full-mode output:\n%s", full)
	}
	if got := run("timing"); got != full {
		t.Errorf("timing CSV diverges from full:\nfull:\n%stiming:\n%s", full, got)
	}
}

// TestFunctionalOverridesApplied pins the Params plumbing: Functional,
// HashMode and ProtectedBytes land in every generated configuration.
func TestFunctionalOverridesApplied(t *testing.T) {
	p := DefaultParams()
	p.Functional = true
	p.HashMode = "timing"
	p.ProtectedBytes = 2 << 20
	cfg := p.config(point{trace.Benchmarks[0], schemeCfg(core.SchemeCached)})
	if !cfg.Functional || cfg.HashMode != "timing" || cfg.ProtectedBytes != 2<<20 {
		t.Errorf("overrides not applied: functional=%v mode=%q protected=%d",
			cfg.Functional, cfg.HashMode, cfg.ProtectedBytes)
	}
}
