package figures

import (
	"strconv"
	"strings"
	"testing"

	"memverify/internal/trace"
)

func abParams() Params {
	return Params{
		Instructions: 12_000,
		Warmup:       5_000,
		Seed:         1,
		Benchmarks:   []trace.Profile{trace.Gzip},
	}
}

func TestAblationVerifyCache(t *testing.T) {
	out := abParams().AblationVerifyCache().String()
	mustContain(t, out, "dedicated verification cache", "shared", "dedicated/shared", "gzip")
}

func TestAblationArity(t *testing.T) {
	out := abParams().AblationArity().String()
	mustContain(t, out, "arity", "8-ary", "4-ary", "gzip")
}

func TestAblationHashLatency(t *testing.T) {
	out := abParams().AblationHashLatency().String()
	mustContain(t, out, "hash latency", "320cy")
}

func TestAblationAssoc(t *testing.T) {
	out := abParams().AblationAssoc().String()
	mustContain(t, out, "associativity", "8-way")
}

func TestAblationTreeDepth(t *testing.T) {
	p := abParams()
	tbl := p.AblationTreeDepth()
	out := tbl.String()
	mustContain(t, out, "protected size", "naive 16GB")
	// The naive columns must strictly increase with protected size: the
	// tree deepens by one level per 4x.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	fields := strings.Fields(last)
	if len(fields) < 9 {
		t.Fatalf("row too short: %q", last)
	}
	var prev float64
	for i := 1; i <= 4; i++ {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", fields[i], err)
		}
		if v <= prev {
			t.Errorf("naive extra/miss not increasing with tree depth: %v then %v", prev, v)
		}
		prev = v
	}
}
