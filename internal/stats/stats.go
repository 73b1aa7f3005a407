// Package stats provides the histogram, geometric mean and fixed-width
// table formatting shared by the simulator and the benchmark harness.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram is a simple bucketed histogram over non-negative integer samples.
type Histogram struct {
	buckets []uint64 // bucket i counts samples in [bounds[i-1], bounds[i])
	bounds  []uint64 // ascending upper bounds; last bucket is overflow
	count   uint64
	sum     uint64
	max     uint64
}

// NewHistogram creates a histogram with the given ascending bucket upper
// bounds. Samples greater than or equal to the last bound land in an
// overflow bucket.
func NewHistogram(bounds ...uint64) *Histogram {
	b := make([]uint64, len(bounds))
	copy(b, bounds)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{
		buckets: make([]uint64, len(b)+1),
		bounds:  b,
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v < h.bounds[i] })
	h.buckets[i]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the arithmetic mean of all samples, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Max returns the largest sample observed.
func (h *Histogram) Max() uint64 { return h.max }

// Bucket returns the count of samples in bucket i (len(bounds)+1 buckets).
func (h *Histogram) Bucket(i int) uint64 { return h.buckets[i] }

// Sum returns the sum of all samples observed.
func (h *Histogram) Sum() uint64 { return h.sum }

// Bounds returns the ascending bucket upper bounds (a copy).
func (h *Histogram) Bounds() []uint64 {
	out := make([]uint64, len(h.bounds))
	copy(out, h.bounds)
	return out
}

// Buckets returns the per-bucket counts (a copy); the final entry is the
// overflow bucket.
func (h *Histogram) Buckets() []uint64 {
	out := make([]uint64, len(h.buckets))
	copy(out, h.buckets)
	return out
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the bucket containing the target rank. Samples in the overflow
// bucket are treated as spanning [last bound, max]. It returns 0 with no
// samples; q is clamped to [0, 1].
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.count)
	cum := 0.0
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next || i == len(h.buckets)-1 {
			lo := 0.0
			if i > 0 {
				lo = float64(h.bounds[i-1])
			}
			hi := float64(h.max)
			if i < len(h.bounds) {
				hi = float64(h.bounds[i])
			}
			if hi < lo {
				hi = lo // max below last bound (overflow bucket empty case)
			}
			frac := (rank - cum) / float64(n)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			v := lo + frac*(hi-lo)
			if v > float64(h.max) {
				v = float64(h.max)
			}
			return v
		}
		cum = next
	}
	return float64(h.max)
}

// Merge folds other's samples into h. Both histograms must share identical
// bucket bounds; Merge panics otherwise, because silently re-bucketing
// would corrupt the distribution. A nil other is a no-op.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	if len(h.bounds) != len(other.bounds) {
		panic("stats: merging histograms with different bounds")
	}
	for i, b := range other.bounds {
		if h.bounds[i] != b {
			panic("stats: merging histograms with different bounds")
		}
	}
	for i, n := range other.buckets {
		h.buckets[i] += n
	}
	h.count += other.count
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Clone returns an independent copy of the histogram.
func (h *Histogram) Clone() *Histogram {
	c := &Histogram{
		buckets: make([]uint64, len(h.buckets)),
		bounds:  make([]uint64, len(h.bounds)),
		count:   h.count,
		sum:     h.sum,
		max:     h.max,
	}
	copy(c.buckets, h.buckets)
	copy(c.bounds, h.bounds)
	return c
}

// Table accumulates rows of labeled numeric cells and renders them as an
// aligned plain-text table, the way the figure harness prints paper figures.
type Table struct {
	Title   string
	header  []string
	rows    [][]string
	decimal int
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header, decimal: 3}
}

// SetPrecision sets the number of fractional digits used by AddRow for
// float64 cells. The default is 3.
func (t *Table) SetPrecision(d int) { t.decimal = d }

// AddRow appends a row. Cells may be string, float64, int, uint64 or
// anything else fmt can print with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			if math.IsNaN(v) {
				row[i] = "-"
			} else {
				row[i] = fmt.Sprintf("%.*f", t.decimal, v)
			}
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

// GeoMean returns the geometric mean of vs, ignoring non-positive values.
// It returns 0 if no positive values are present.
func GeoMean(vs []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vs {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
