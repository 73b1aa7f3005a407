package figures

import (
	"strings"
	"testing"

	"memverify/internal/core"
	"memverify/internal/trace"
)

// tinyParams keeps figure tests quick: two benchmarks, small budgets.
func tinyParams() Params {
	return Params{
		Instructions: 15_000,
		Warmup:       5_000,
		Seed:         1,
		Benchmarks:   []trace.Profile{trace.Gzip, trace.Twolf},
	}
}

func mustContain(t *testing.T, out string, wants ...string) {
	t.Helper()
	for _, w := range wants {
		if !strings.Contains(out, w) {
			t.Errorf("output missing %q:\n%s", w, out)
		}
	}
}

func TestFig3(t *testing.T) {
	out := tinyParams().Fig3(Fig3Config{L2Size: 256 << 10, L2Block: 64}).String()
	mustContain(t, out, "Figure 3", "256KB", "base", "naive", "gzip", "twolf")
	if len(Fig3Configs) != 6 {
		t.Errorf("paper has six L2 configurations, got %d", len(Fig3Configs))
	}
}

func TestFig4(t *testing.T) {
	out := tinyParams().Fig4().String()
	mustContain(t, out, "Figure 4", "base-256K", "c-4M", "gzip", "twolf")
}

func TestFig5(t *testing.T) {
	out := tinyParams().Fig5().String()
	mustContain(t, out, "Figure 5", "extra/miss c", "bandwidth naive")
}

func TestFig6(t *testing.T) {
	out := tinyParams().Fig6().String()
	mustContain(t, out, "Figure 6", "6.4 GB/s", "0.8 GB/s")
	if len(Fig6Throughputs) != 4 {
		t.Error("paper sweeps four throughputs")
	}
}

func TestFig7(t *testing.T) {
	out := tinyParams().Fig7().String()
	mustContain(t, out, "Figure 7", "16", "32")
}

func TestFig8(t *testing.T) {
	out := tinyParams().Fig8().String()
	mustContain(t, out, "Figure 8", "c-64B", "c-128B", "m-64B", "i-64B")
}

func TestTable1(t *testing.T) {
	mustContain(t, tinyParams().Table1(), "Table 1", "Hash throughput")
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.Instructions == 0 || p.Warmup == 0 {
		t.Error("zero default budgets")
	}
	if len(p.benches()) != 9 {
		t.Errorf("default benchmarks: %d, want the paper's nine", len(p.benches()))
	}
}

func TestCSVObserver(t *testing.T) {
	var rows []string
	p := tinyParams()
	p.Observer = func(cfg core.Config, mt core.Metrics) {
		var b strings.Builder
		WriteCSVRow(&b, cfg, mt)
		rows = append(rows, b.String())
	}
	p.Fig5()
	if len(rows) != 2*3 { // two benchmarks x three schemes
		t.Fatalf("observer saw %d runs, want 6", len(rows))
	}
	header := strings.Split(CSVHeader, ",")
	for _, r := range rows {
		fields := strings.Split(strings.TrimSpace(r), ",")
		if len(fields) != len(header) {
			t.Fatalf("row has %d fields, header has %d: %q", len(fields), len(header), r)
		}
	}
	if !strings.HasPrefix(rows[0], "gzip,base,") {
		t.Errorf("first row: %q", rows[0])
	}
}

// TestZeroDenominatorsPrintDash runs a profile that fits in the L1s, so
// after warm-up no run misses the L2 and base moves no bus bytes: every
// extra/miss and bandwidth cell must print "-" (no evidence), not 0.000,
// and both CSV extra-per-miss columns must read n/a.
func TestZeroDenominatorsPrintDash(t *testing.T) {
	resident := trace.Uniform("resident", 8<<10)
	resident.CodeSet = 4 << 10
	p := Params{Instructions: 10_000, Warmup: 50_000, Seed: 1, Benchmarks: []trace.Profile{resident}}
	var rows []string
	p.Observer = func(cfg core.Config, mt core.Metrics) {
		if mt.L2DataMisses != 0 || (cfg.Scheme == core.SchemeBase && mt.BusBytes != 0) {
			t.Fatalf("%s: %d L2 data misses, %d bus bytes; the profile must stay resident",
				cfg.Scheme, mt.L2DataMisses, mt.BusBytes)
		}
		var b strings.Builder
		WriteCSVRow(&b, cfg, mt)
		rows = append(rows, b.String())
	}
	lastRow := func(out string) string {
		lines := strings.Split(strings.TrimSpace(out), "\n")
		return strings.Join(strings.Fields(lines[len(lines)-1]), " ")
	}
	if got := lastRow(p.Fig5().String()); got != "resident - - - -" {
		t.Errorf("Figure 5 row = %q, want every ratio as -", got)
	}
	for _, r := range rows {
		if f := strings.Split(r, ","); f[10] != "n/a" || f[11] != "n/a" {
			t.Errorf("CSV extra_per_miss columns = %q, %q, want n/a: %q", f[10], f[11], r)
		}
	}
	if got := lastRow(p.AblationArity().String()); !strings.HasSuffix(got, " - -") {
		t.Errorf("arity ablation row = %q, want extra/miss as -", got)
	}
}
