package obs

import (
	"bytes"
	"testing"

	"memverify/internal/stats"
	"memverify/internal/telemetry"
)

// FuzzValidateExposition holds the scrape checker — which cmd/metricscheck
// points at whatever a /metrics URL returns — to an error or a scrape,
// never a panic: an accepted scrape has every sample inside an announced
// family and compares clean against itself.
func FuzzValidateExposition(f *testing.F) {
	reg := telemetry.NewRegistry()
	reg.Add("a.count", 3)
	reg.SetGauge("b.level", -1.5)
	h := stats.NewHistogram(10, 100)
	h.Observe(5)
	h.Observe(500)
	reg.MergeHistogram("c.dist", h)
	var own bytes.Buffer
	if err := WriteExposition(&own, reg, map[string]float64{"ops_per_sec": 12.5}); err != nil {
		f.Fatal(err)
	}
	f.Add(own.Bytes())
	f.Add([]byte("# HELP x h\n# TYPE x counter\nx{a=\"b\"} 1\n"))
	f.Add([]byte("# TYPE\n"))
	f.Fuzz(func(t *testing.T, text []byte) {
		sc, err := ValidateExposition(bytes.NewReader(text))
		if err != nil {
			return
		}
		if len(sc.Order) != len(sc.Families) {
			t.Fatalf("%d families listed in order, %d in the map", len(sc.Order), len(sc.Families))
		}
		for _, name := range sc.Order {
			fam := sc.Families[name]
			if fam == nil || !isLegalMetricName(name) {
				t.Fatalf("accepted family %q", name)
			}
			for _, s := range fam.Samples {
				if familyFor(sc, s.Name) != fam {
					t.Fatalf("sample %q filed under family %q", s.Name, name)
				}
			}
		}
		if err := CompareScrapes(sc, sc); err != nil {
			t.Fatalf("an accepted scrape went backwards against itself: %v", err)
		}
	})
}
