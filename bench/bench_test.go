package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

type result struct {
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// smoke runs one workload with tiny op counts and checks the printed run
// against the declared metric list.
func smoke(t *testing.T, workload string, trace bool, decl []metric) result {
	t.Helper()
	var out bytes.Buffer
	o := options{workload: workload, seed: 5, seconds: 0.05, trace: trace, outDir: t.TempDir(), tiny: true}
	if err := run(o, &out); err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	printed := map[string]int{}
	for _, line := range lines[:len(lines)-1] {
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			t.Errorf("%s: metric line %q is not \"name value unit\"", workload, line)
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: %s has value %q", workload, f[0], f[1])
		}
		printed[f[0]]++
	}
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", workload, err, lines[len(lines)-1])
	}
	for _, m := range decl {
		if !metricName.MatchString(m.name) {
			t.Errorf("metric name %q is outside the benchmark contract", m.name)
		}
		if printed[m.name] != 1 {
			t.Errorf("%s: %s printed %d times, want once", workload, m.name, printed[m.name])
		}
		if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
			t.Errorf("%s: result object has %s = %+v, want unit %s", workload, m.name, got, m.unit)
		}
	}
	if len(res.Metrics) != len(decl) {
		t.Errorf("%s: result object has %d metrics, want the %d declared", workload, len(res.Metrics), len(decl))
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 || printed["ops_failed"] != 1 || printed["ops_attempted"] != 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func TestEveryWorkloadReportsEveryEndToEndMetric(t *testing.T) {
	for _, wl := range workloads {
		res := smoke(t, wl.name, false, endToEnd)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v; an end-to-end metric is never 0", wl.name, name, m.Value)
			}
		}
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	for _, wl := range workloads {
		res := smoke(t, wl.name, true, perLayer)
		if wl.sim {
			continue
		}
		// The run itself fails a serve span that is not inside its wait span
		// (ops_failed, checked by smoke). What is left to check here: the
		// client's self time is measured, not derived, so the five self
		// times need not add up to the span they decompose; the issue
		// allows them 15 %.
		v := func(name string) float64 { return res.Metrics[name].Value }
		wait := v("client.wait_us")
		if v("client.self_us") <= 0 || v("service.serve_us") <= 0 || v("service.serve_us") >= wait {
			t.Errorf("%s: client.self_us %v, service.serve_us %v, client.wait_us %v: want 0 < self and 0 < serve < wait",
				wl.name, v("client.self_us"), v("service.serve_us"), wait)
		}
		sum := v("client.self_us") + v("service.self_us") + v("shard.self_us") + v("integrity.self_us") + v("core.self_us")
		if math.Abs(sum-wait) > 0.15*wait {
			t.Errorf("%s: self times add up to %v us, client.wait_us is %v", wl.name, sum, wait)
		}
	}
}

// The join of the two spans of a batch is checked by containment.
func TestNestedCountsSpansOutsideTheirParent(t *testing.T) {
	t0 := time.Now()
	at := func(us, dur int) span {
		return span{t0.Add(time.Duration(us) * time.Microsecond), time.Duration(dur) * time.Microsecond}
	}
	waits := [][]span{{at(0, 100), at(200, 100), at(400, 100)}, {at(0, 50)}}
	serves := [][]span{{at(10, 80), at(150, 100), at(410, 100)}, {}}
	// Worker 0: inside; starts early; ends late. Worker 1: no serve span.
	if bad := nested(waits, serves); bad != 3 {
		t.Errorf("nested counted %d misplaced spans, want 3", bad)
	}
}

// A failed check must cost the run its verdict, not vanish into an average.
func TestFailuresAreCounted(t *testing.T) {
	wl, p := workloadByName("svc-miss").tiny(), tinyParams()
	ms, err := newMachines(p, "c")
	if err != nil {
		t.Fatal(err)
	}
	pr := prepare(ms, wl, p, 1, 0)
	pr.d.workers[0].mirror[0] ^= 0xFF // the mirror now disagrees with the machine
	pr.d.compare()
	if tl := pr.d.tally(); tl.failed != 1 || tl.firstErr == nil {
		t.Errorf("a corrupted mirror byte gave failed=%d err=%v, want exactly one failure", tl.failed, tl.firstErr)
	}
	if err := tamperMachine(ms.ms[0]); err != nil {
		t.Errorf("tamper probe: %v", err)
	}
}

// BENCHMARK.json is the registration the driver reads; the program is what
// prints. They must name the same things.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads registered, %d implemented", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: registered %q %q, implemented %q %q", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	check := func(kind string, got []jm, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d registered, %d declared", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: registered %+v, declared %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != m.bound || m.bound <= 0 || m.bound > 0.25)) {
				t.Errorf("%s %s: bound %v registered, %v declared", kind, m.name, g.Bound, m.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
}
