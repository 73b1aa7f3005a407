package obs

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"memverify/internal/stats"
	"memverify/internal/telemetry"
)

func validate(t *testing.T, text string) (*Scrape, error) {
	t.Helper()
	return ValidateExposition(strings.NewReader(text))
}

func TestValidateExpositionAcceptsOwnOutput(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Add("a.count", 3)
	reg.SetGauge("b.level", -1.5)
	h := stats.NewHistogram(10, 100)
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	reg.MergeHistogram("c.dist", h)
	var buf bytes.Buffer
	if err := WriteExposition(&buf, reg, map[string]float64{"ops_per_sec": 12.5}); err != nil {
		t.Fatal(err)
	}
	sc, err := ValidateExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("own exposition rejected: %v\n%s", err, buf.String())
	}
	if len(sc.Families) != 4 {
		t.Errorf("families = %v, want 4", sc.Order)
	}
	if f := sc.Families["memverify_c_dist"]; f == nil || f.Type != "histogram" {
		t.Errorf("histogram family missing: %+v", sc.Order)
	}
}

func TestValidateExpositionRejections(t *testing.T) {
	cases := []struct {
		name, text, wantErr string
	}{
		{
			"sample without TYPE",
			"memverify_orphan 1\n",
			"no preceding # TYPE",
		},
		{
			"TYPE line without a type",
			"# HELP memverify_x h\n# TYPE memverify_x\nmemverify_x 1\n",
			"names no type",
		},
		{
			"TYPE without HELP",
			"# TYPE memverify_x counter\nmemverify_x 1\n",
			"TYPE but no HELP",
		},
		{
			"HELP without TYPE",
			"# HELP memverify_x h\nmemverify_x 1\n",
			"HELP but no TYPE",
		},
		{
			"duplicate TYPE",
			"# HELP memverify_x h\n# TYPE memverify_x counter\n# TYPE memverify_x counter\nmemverify_x 1\n",
			"duplicate TYPE",
		},
		{
			"duplicate sample",
			"# HELP memverify_x h\n# TYPE memverify_x counter\nmemverify_x 1\nmemverify_x 2\n",
			"duplicate sample",
		},
		{
			"illegal name",
			"# HELP memverify_x h\n# TYPE memverify_x counter\n0bad 1\n",
			"illegal metric name",
		},
		{
			"non-contiguous family",
			"# HELP memverify_a h\n# TYPE memverify_a counter\n" +
				"# HELP memverify_b h\n# TYPE memverify_b counter\n" +
				"memverify_a 1\nmemverify_b 1\nmemverify_a 2\n",
			"not contiguous",
		},
		{
			"trailing timestamp",
			"# HELP memverify_x h\n# TYPE memverify_x counter\nmemverify_x 1 1712345678\n",
			"trailing fields",
		},
		{
			"histogram buckets not cumulative",
			"# HELP memverify_h h\n# TYPE memverify_h histogram\n" +
				"memverify_h_bucket{le=\"1\"} 5\nmemverify_h_bucket{le=\"2\"} 3\n" +
				"memverify_h_bucket{le=\"+Inf\"} 5\nmemverify_h_sum 9\nmemverify_h_count 5\n",
			"cumulative bucket counts decrease",
		},
		{
			"histogram le out of order",
			"# HELP memverify_h h\n# TYPE memverify_h histogram\n" +
				"memverify_h_bucket{le=\"2\"} 1\nmemverify_h_bucket{le=\"1\"} 2\n" +
				"memverify_h_bucket{le=\"+Inf\"} 2\nmemverify_h_sum 3\nmemverify_h_count 2\n",
			"not strictly increasing",
		},
		{
			"histogram missing +Inf",
			"# HELP memverify_h h\n# TYPE memverify_h histogram\n" +
				"memverify_h_bucket{le=\"1\"} 1\nmemverify_h_sum 1\nmemverify_h_count 1\n",
			"missing le=\"+Inf\"",
		},
		{
			"histogram count mismatch",
			"# HELP memverify_h h\n# TYPE memverify_h histogram\n" +
				"memverify_h_bucket{le=\"+Inf\"} 3\nmemverify_h_sum 4\nmemverify_h_count 2\n",
			"_count 2 != +Inf bucket 3",
		},
	}
	for _, tc := range cases {
		_, err := validate(t, tc.text)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestCompareScrapes(t *testing.T) {
	base := "# HELP memverify_ops h\n# TYPE memverify_ops counter\nmemverify_ops %d\n" +
		"# HELP memverify_util h\n# TYPE memverify_util gauge\nmemverify_util %g\n"
	mk := func(t *testing.T, ops int, util float64) *Scrape {
		sc, err := ValidateExposition(strings.NewReader(
			strings.ReplaceAll(strings.ReplaceAll(base, "%d", itoa(ops)), "%g", ftoa(util))))
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	first := mk(t, 100, 0.9)
	second := mk(t, 250, 0.1)
	if err := CompareScrapes(first, second); err != nil {
		t.Errorf("advancing counter + moving gauge rejected: %v", err)
	}
	if err := CompareScrapes(second, first); err == nil {
		t.Error("backwards counter accepted")
	}

	// A counter family that disappears is a validator failure.
	onlyGauge, err := ValidateExposition(strings.NewReader(
		"# HELP memverify_util h\n# TYPE memverify_util gauge\nmemverify_util 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := CompareScrapes(first, onlyGauge); err == nil {
		t.Error("disappearing counter family accepted")
	}
}

func itoa(v int) string     { return strconv.Itoa(v) }
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
