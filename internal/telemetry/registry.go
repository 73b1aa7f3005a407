package telemetry

import (
	"fmt"
	"io"
	"sort"

	"memverify/internal/stats"
)

// MetricsSchema identifies the snapshot layout; the validator and any
// downstream tooling key off it.
const MetricsSchema = "memverify-metrics-v1"

// Registry collects a run's counters, gauges, histograms and series and
// snapshots them as deterministic JSON: keys sorted, floats printed with
// fixed %.6f formatting, no map iteration feeding the encoder. Components
// don't write to a Registry during simulation — it is filled once at the
// end of a run from their counters and the Recorder's probes, so it is
// entirely off the hot path.
type Registry struct {
	counters map[string]uint64
	gauges   map[string]float64
	hists    map[string]*stats.Histogram
	series   map[string][]uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]uint64{},
		gauges:   map[string]float64{},
		hists:    map[string]*stats.Histogram{},
		series:   map[string][]uint64{},
	}
}

// Add accumulates d into the named counter.
func (r *Registry) Add(name string, d uint64) { r.counters[name] += d }

// Counter returns the named counter's value (0 if absent).
func (r *Registry) Counter(name string) uint64 { return r.counters[name] }

// SetGauge records a point-in-time float value, replacing any previous one.
func (r *Registry) SetGauge(name string, v float64) { r.gauges[name] = v }

// Gauge returns the named gauge's value (0 if absent).
func (r *Registry) Gauge(name string) float64 { return r.gauges[name] }

// MergeHistogram folds h into the named histogram (cloning on first use so
// the registry owns its data). A nil or empty h is a no-op.
func (r *Registry) MergeHistogram(name string, h *stats.Histogram) {
	if h == nil {
		return
	}
	if have, ok := r.hists[name]; ok {
		have.Merge(h)
	} else {
		r.hists[name] = h.Clone()
	}
}

// Histogram returns the named histogram, or nil.
func (r *Registry) Histogram(name string) *stats.Histogram { return r.hists[name] }

// AppendSeries extends the named sample series (e.g. per-window bus busy
// cycles) in order.
func (r *Registry) AppendSeries(name string, vs ...uint64) {
	r.series[name] = append(r.series[name], vs...)
}

// EachCounter visits every counter in sorted name order.
func (r *Registry) EachCounter(f func(name string, v uint64)) {
	for _, name := range sortedKeys(r.counters) {
		f(name, r.counters[name])
	}
}

// EachGauge visits every gauge in sorted name order.
func (r *Registry) EachGauge(f func(name string, v float64)) {
	for _, name := range sortedKeys(r.gauges) {
		f(name, r.gauges[name])
	}
}

// EachHistogram visits every histogram in sorted name order. The
// histogram is the registry's own — treat it as read-only.
func (r *Registry) EachHistogram(f func(name string, h *stats.Histogram)) {
	for _, name := range sortedKeys(r.hists) {
		f(name, r.hists[name])
	}
}

// EachSeries visits every series in sorted name order. The slice is the
// registry's own — treat it as read-only.
func (r *Registry) EachSeries(f func(name string, vs []uint64)) {
	for _, name := range sortedKeys(r.series) {
		f(name, r.series[name])
	}
}

// MergeInto folds this registry's contents into dst: counters accumulate,
// gauges overwrite, histograms merge, series append. The receiver is left
// untouched — the scrape path uses MergeInto to clone a live registry
// under its owner's lock before serializing without it.
func (r *Registry) MergeInto(dst *Registry) {
	for name, v := range r.counters {
		dst.counters[name] += v
	}
	for name, v := range r.gauges {
		dst.gauges[name] = v
	}
	for name, h := range r.hists {
		dst.MergeHistogram(name, h)
	}
	for name, vs := range r.series {
		dst.series[name] = append(dst.series[name], vs...)
	}
}

// WriteJSON writes the snapshot. The layout is fixed:
//
//	{
//	  "schema": "memverify-metrics-v1",
//	  "counters": {name: uint, ...},        // sorted by name
//	  "gauges": {name: float, ...},         // sorted, %.6f
//	  "histograms": {name: {bounds, buckets, count, max, mean, p50, p90, p99, sum}, ...},
//	  "series": {name: [uint, ...], ...}
//	}
func (r *Registry) WriteJSON(w io.Writer) error {
	var err error
	pr := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	pr("{\n  \"schema\": %q,\n", MetricsSchema)

	pr("  \"counters\": {")
	for i, name := range sortedKeys(r.counters) {
		pr("%s\n    %q: %d", comma(i), name, r.counters[name])
	}
	pr("\n  },\n")

	pr("  \"gauges\": {")
	for i, name := range sortedKeys(r.gauges) {
		pr("%s\n    %q: %.6f", comma(i), name, r.gauges[name])
	}
	pr("\n  },\n")

	pr("  \"histograms\": {")
	for i, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		pr("%s\n    %q: {\"bounds\": %s, \"buckets\": %s, \"count\": %d, \"max\": %d, "+
			"\"mean\": %.6f, \"p50\": %.6f, \"p90\": %.6f, \"p99\": %.6f, \"sum\": %d}",
			comma(i), name, uintList(h.Bounds()), uintList(h.Buckets()),
			h.Count(), h.Max(), h.Mean(), h.Quantile(0.50), h.Quantile(0.90),
			h.Quantile(0.99), h.Sum())
	}
	pr("\n  },\n")

	pr("  \"series\": {")
	for i, name := range sortedKeys(r.series) {
		pr("%s\n    %q: %s", comma(i), name, uintList(r.series[name]))
	}
	pr("\n  }\n}\n")
	return err
}

func comma(i int) string {
	if i == 0 {
		return ""
	}
	return ","
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func uintList(vs []uint64) string {
	out := []byte{'['}
	for i, v := range vs {
		if i > 0 {
			out = append(out, ',')
		}
		out = fmt.Appendf(out, "%d", v)
	}
	return string(append(out, ']'))
}
