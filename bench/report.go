package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
)

// report is the outcome of one run: the metric values, the failure count
// and the metadata that says what was run where.
type report struct {
	workload string
	seed     uint64
	traced   bool
	values   map[string]float64
	infos    []string
	meta     map[string]string
	tally
}

func newReport(wl *workload, seed uint64, traced bool) *report {
	r := &report{workload: wl.name, seed: seed, traced: traced, values: map[string]float64{}, meta: hostMeta()}
	r.meta["workload"] = wl.name
	r.meta["seed"] = fmt.Sprint(seed)
	r.meta["ops"] = fmt.Sprintf("batch=%d slice=%d warmup=%d (batches per worker)", wl.batchOps, wl.sliceBatches, wl.warmBatches)
	return r
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) info(key, format string, args ...any) {
	r.infos = append(r.infos, key+" "+fmt.Sprintf(format, args...))
}

// declared is the metric list this run answers for.
func (r *report) declared() []metric {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// correct is the run's verdict: nothing failed and every declared metric is
// a finite number.
func (r *report) correct() bool {
	if r.failed > 0 || r.attempted == 0 {
		return false
	}
	for _, m := range r.declared() {
		if v, ok := r.values[m.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints the run: metadata and diagnostics as comment lines, every
// declared metric as "name value unit", and the result object last.
func (r *report) write(w io.Writer) {
	keys := make([]string, 0, len(r.meta))
	for k := range r.meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "# meta %s %s\n", k, r.meta[k])
	}
	for _, s := range r.infos {
		fmt.Fprintf(w, "# info %s\n", s)
	}
	out := map[string]jsonMetric{}
	for _, m := range r.declared() {
		v, ok := r.values[m.name]
		if !ok {
			fmt.Fprintf(w, "# missing %s\n", m.name)
			continue
		}
		fmt.Fprintf(w, "%s %s %s\n", m.name, formatValue(v), m.unit)
		out[m.name] = jsonMetric{v, m.unit}
	}
	var extra []string
	for name := range r.values {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "# diag %s %s\n", name, formatValue(r.values[name]))
	}
	fmt.Fprintf(w, "ops_attempted %d count\nops_failed %d count\n", r.attempted, r.failed)
	if r.firstErr != nil {
		fmt.Fprintf(w, "# first failure: %v\n", r.firstErr)
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted uint64                `json:"attempted"`
		Failed    uint64                `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, out})
	if err != nil {
		// A NaN or Inf value: say so instead of printing a result.
		fmt.Fprintf(w, "# cannot encode the result: %v\n", err)
		return
	}
	fmt.Fprintf(w, "%s\n", line)
}

// formatValue keeps every digit of a measurement and prints counts whole.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}

// document is the -json form: everything write prints, as one object.
func (r *report) document() map[string]any {
	vals := map[string]jsonMetric{}
	units := map[string]string{}
	for _, m := range slices.Concat(endToEnd, perLayer) {
		units[m.name] = m.unit
	}
	for name, v := range r.values {
		vals[name] = jsonMetric{v, units[name]}
	}
	return map[string]any{
		"meta": r.meta, "traced": r.traced, "correct": r.correct(),
		"attempted": r.attempted, "failed": r.failed, "metrics": vals, "info": r.infos,
	}
}
