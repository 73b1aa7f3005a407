package stats

import (
	"math"
	"strings"
	"testing"
)

func TestHistogram(t *testing.T) {
	h := NewHistogram(10, 100)
	if h.Mean() != 0 {
		t.Errorf("empty Mean = %f, want 0", h.Mean())
	}
	for _, v := range []uint64{1, 5, 9, 10, 50, 99, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Bucket(0) != 3 { // <10
		t.Errorf("bucket 0 = %d, want 3", h.Bucket(0))
	}
	if h.Bucket(1) != 3 { // 10..99
		t.Errorf("bucket 1 = %d, want 3", h.Bucket(1))
	}
	if h.Bucket(2) != 2 { // >=100
		t.Errorf("bucket 2 = %d, want 2", h.Bucket(2))
	}
	if h.Max() != 1000 {
		t.Errorf("Max = %d", h.Max())
	}
	want := float64(1+5+9+10+50+99+100+1000) / 8
	if h.Mean() != want {
		t.Errorf("Mean = %f, want %f", h.Mean(), want)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram(10)
	h.Observe(10) // exactly at the last bound lands in overflow
	h.Observe(1 << 40)
	if h.Bucket(0) != 0 || h.Bucket(1) != 2 {
		t.Fatalf("buckets = %v, want all samples in overflow", h.Buckets())
	}
	if h.Max() != 1<<40 {
		t.Fatalf("Max = %d", h.Max())
	}
	// Overflow-bucket quantiles interpolate between the last bound and max.
	if q := h.Quantile(1); q != float64(1<<40) {
		t.Fatalf("Quantile(1) = %v, want max", q)
	}
	if q := h.Quantile(0); q < 10 || q > float64(1<<40) {
		t.Fatalf("Quantile(0) = %v, outside overflow span", q)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	h := NewHistogram(10, 20)
	for i := 0; i < 10; i++ {
		h.Observe(5)  // bucket [0,10)
		h.Observe(15) // bucket [10,20)
	}
	// Median rank falls exactly at the bucket boundary.
	if q := h.Quantile(0.5); q != 10 {
		t.Fatalf("Quantile(0.5) = %v, want 10", q)
	}
	// Rank 15 of 20 → 5 samples into the 10-wide second bucket.
	if q := h.Quantile(0.75); q != 15 {
		t.Fatalf("Quantile(0.75) = %v, want 15", q)
	}
	// Quantile never exceeds the observed max, even mid-bucket.
	if q := h.Quantile(1); q > float64(h.Max()) {
		t.Fatalf("Quantile(1) = %v exceeds max %d", q, h.Max())
	}
	// Out-of-range q clamps; empty histogram returns 0.
	if q := h.Quantile(2); q != h.Quantile(1) {
		t.Fatalf("q>1 not clamped: %v", q)
	}
	if q := NewHistogram(10).Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram Quantile = %v, want 0", q)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(10, 100)
	b := NewHistogram(10, 100)
	a.Observe(5)
	a.Observe(50)
	b.Observe(50)
	b.Observe(500)
	a.Merge(b)
	if a.Count() != 4 || a.Sum() != 605 || a.Max() != 500 {
		t.Fatalf("merged count/sum/max = %d/%d/%d", a.Count(), a.Sum(), a.Max())
	}
	if a.Bucket(0) != 1 || a.Bucket(1) != 2 || a.Bucket(2) != 1 {
		t.Fatalf("merged buckets = %v", a.Buckets())
	}
	// b is untouched.
	if b.Count() != 2 {
		t.Fatalf("merge mutated source: count %d", b.Count())
	}
	// Merging a nil histogram is a no-op.
	a.Merge(nil)
	if a.Count() != 4 {
		t.Fatal("nil merge changed counts")
	}
	// Mismatched bounds must panic rather than silently re-bucket.
	defer func() {
		if recover() == nil {
			t.Fatal("merge with different bounds did not panic")
		}
	}()
	a.Merge(NewHistogram(7))
}

func TestHistogramClone(t *testing.T) {
	h := NewHistogram(10)
	h.Observe(3)
	c := h.Clone()
	c.Observe(4)
	if h.Count() != 1 || c.Count() != 2 {
		t.Fatalf("clone not independent: %d/%d", h.Count(), c.Count())
	}
	if b := h.Bounds(); len(b) != 1 || b[0] != 10 {
		t.Fatalf("Bounds = %v", b)
	}
}

func TestHistogramUnsortedBounds(t *testing.T) {
	h := NewHistogram(100, 10) // bounds given out of order
	h.Observe(5)
	if h.Bucket(0) != 1 {
		t.Error("bounds were not sorted")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("My Title", "name", "value")
	tb.AddRow("alpha", 1.23456)
	tb.AddRow("b", 42)
	tb.AddRow("nan", math.NaN())
	out := tb.String()
	for _, want := range []string{"My Title", "name", "alpha", "1.235", "42", "----"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "-") {
		t.Error("NaN should render as -")
	}
}

func TestTablePrecision(t *testing.T) {
	tb := NewTable("", "v")
	tb.SetPrecision(1)
	tb.AddRow(2.718)
	if !strings.Contains(tb.String(), "2.7") || strings.Contains(tb.String(), "2.718") {
		t.Errorf("precision not applied:\n%s", tb.String())
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Errorf("GeoMean(2,8) = %f, want 4", g)
	}
	if g := GeoMean([]float64{-1, 0}); g != 0 {
		t.Errorf("GeoMean of non-positives = %f, want 0", g)
	}
	if g := GeoMean([]float64{5, -1}); math.Abs(g-5) > 1e-9 {
		t.Errorf("GeoMean ignores non-positives: %f", g)
	}
}
