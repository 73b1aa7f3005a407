package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent mirrors the subset of the Chrome trace-event schema the
// validator checks.
type chromeEvent struct {
	Ph   string          `json:"ph"`
	Pid  int64           `json:"pid"`
	Tid  int64           `json:"tid"`
	Ts   *float64        `json:"ts"`
	Dur  *float64        `json:"dur"`
	Name string          `json:"name"`
	Args json.RawMessage `json:"args"`
}

// ValidateChromeTrace checks that r holds well-formed Chrome trace-event
// JSON as this package emits it: the document parses, every span ("X")
// event carries ts and dur, per (pid, tid) timestamps are monotonically
// non-decreasing, and spans on one thread are well-nested (containment is
// fine, partial overlap is not — Perfetto renders partial overlaps as
// garbage). It returns the number of span events on success.
func ValidateChromeTrace(r io.Reader) (spans int, err error) {
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return 0, fmt.Errorf("trace does not parse: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return 0, fmt.Errorf("trace has no events")
	}

	type key struct{ pid, tid int64 }
	type span struct{ begin, end float64 }
	threads := map[key][]span{}
	names := map[key]string{}
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name != "thread_name" {
				continue
			}
			var args struct {
				Name string `json:"name"`
			}
			if err := json.Unmarshal(ev.Args, &args); err != nil || args.Name == "" {
				return 0, fmt.Errorf("event %d: thread_name metadata without a name", i)
			}
			names[key{ev.Pid, ev.Tid}] = args.Name
		case "X":
			if ev.Ts == nil || ev.Dur == nil {
				return 0, fmt.Errorf("event %d (%q): X event missing ts or dur", i, ev.Name)
			}
			if *ev.Dur < 0 {
				return 0, fmt.Errorf("event %d (%q): negative dur", i, ev.Name)
			}
			k := key{ev.Pid, ev.Tid}
			threads[k] = append(threads[k], span{*ev.Ts, *ev.Ts + *ev.Dur})
			spans++
		default:
			return 0, fmt.Errorf("event %d (%q): unexpected phase %q", i, ev.Name, ev.Ph)
		}
	}
	if spans == 0 {
		return 0, fmt.Errorf("trace has no span events")
	}

	keys := make([]key, 0, len(threads))
	for k := range threads {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pid != keys[j].pid {
			return keys[i].pid < keys[j].pid
		}
		return keys[i].tid < keys[j].tid
	})
	for _, k := range keys {
		name := names[k]
		sps := threads[k]
		// File order per thread must already be monotonic in ts.
		for i := 1; i < len(sps); i++ {
			if sps[i].begin < sps[i-1].begin {
				return 0, fmt.Errorf("pid %d tid %d (%s): timestamps not monotonic (%v after %v)",
					k.pid, k.tid, name, sps[i].begin, sps[i-1].begin)
			}
		}
		// Well-nesting: walk a stack of open spans; each new span must
		// either start after the top ends, or end within it.
		var stack []span
		for _, s := range sps {
			for len(stack) > 0 && stack[len(stack)-1].end <= s.begin {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && s.end > stack[len(stack)-1].end {
				return 0, fmt.Errorf("pid %d tid %d (%s): span [%v,%v) partially overlaps [%v,%v)",
					k.pid, k.tid, name, s.begin, s.end,
					stack[len(stack)-1].begin, stack[len(stack)-1].end)
			}
			stack = append(stack, s)
		}
	}
	return spans, nil
}

// ValidateMetrics checks a metrics snapshot against the
// memverify-metrics-v1 schema: section types are right, histogram
// bounds/buckets lengths are consistent (len(buckets) == len(bounds)+1),
// and each histogram's count equals the sum of its buckets.
func ValidateMetrics(r io.Reader) error {
	var doc struct {
		Schema   string                    `json:"schema"`
		Counters map[string]uint64         `json:"counters"`
		Gauges   map[string]float64        `json:"gauges"`
		Hists    map[string]map[string]any `json:"histograms"`
		Series   map[string][]uint64       `json:"series"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return fmt.Errorf("metrics do not parse: %w", err)
	}
	if doc.Schema != MetricsSchema {
		return fmt.Errorf("schema is %q, want %q", doc.Schema, MetricsSchema)
	}
	for _, name := range sortedKeys(doc.Hists) {
		h := doc.Hists[name]
		bounds, ok := h["bounds"].([]any)
		if !ok {
			return fmt.Errorf("histogram %q: missing bounds", name)
		}
		buckets, ok := h["buckets"].([]any)
		if !ok {
			return fmt.Errorf("histogram %q: missing buckets", name)
		}
		if len(buckets) != len(bounds)+1 {
			return fmt.Errorf("histogram %q: %d buckets for %d bounds (want bounds+1)",
				name, len(buckets), len(bounds))
		}
		count, ok := h["count"].(float64)
		if !ok {
			return fmt.Errorf("histogram %q: missing count", name)
		}
		sum := 0.0
		for _, b := range buckets {
			n, ok := b.(float64)
			if !ok || n < 0 {
				return fmt.Errorf("histogram %q: non-numeric bucket", name)
			}
			sum += n
		}
		if sum != count {
			return fmt.Errorf("histogram %q: bucket sum %v != count %v", name, sum, count)
		}
	}
	return nil
}
