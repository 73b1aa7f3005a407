package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"memverify/internal/stats"
)

func TestRingRetention(t *testing.T) {
	tr := NewTrace(4)
	for i := uint64(0); i < 10; i++ {
		tr.Emit(TrackBus, KindBusGrant, i, i+1, i, 0)
	}
	if tr.Total() != 10 || tr.Len() != 4 || tr.Dropped() != 6 {
		t.Fatalf("total=%d len=%d dropped=%d, want 10/4/6", tr.Total(), tr.Len(), tr.Dropped())
	}
	evs, firstSeq := tr.retained()
	if firstSeq != 6 {
		t.Fatalf("firstSeq = %d, want 6", firstSeq)
	}
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Begin != want {
			t.Fatalf("retained[%d].Begin = %d, want %d (oldest-first order broken)", i, ev.Begin, want)
		}
	}
}

func TestNilTraceIsNoop(t *testing.T) {
	var tr *Trace
	tr.Emit(TrackL2, KindL2Read, 0, 1, 2, 3) // must not panic
	tr.BeginProcess("x")
	if tr.Len() != 0 || tr.Total() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil trace reported nonzero state")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil export: %v", err)
	}
}

// TestDisabledEmissionZeroAllocs pins the nil-sink fast path: emitting
// into disabled telemetry must not allocate. This is the alloc half of the
// overhead contract in the package comment.
func TestDisabledEmissionZeroAllocs(t *testing.T) {
	var tr *Trace
	var m *Meter
	if n := testing.AllocsPerRun(1000, func() {
		tr.Emit(TrackBus, KindBusGrant, 1, 2, 3, 4)
		tr.BeginProcess("p")
		m.StartBatch(1)
		m.Tick()
		m.Finish()
	}); n != 0 {
		t.Fatalf("disabled emission allocates %v allocs/op, want 0", n)
	}
}

// TestEnabledEmissionZeroAllocsSteadyState pins that a warm ring never
// allocates per event either — the cost of -trace is bounded by the ring.
func TestEnabledEmissionZeroAllocsSteadyState(t *testing.T) {
	tr := NewTrace(64)
	for i := uint64(0); i < 64; i++ {
		tr.Emit(TrackBus, KindBusGrant, i, i+1, 0, 0)
	}
	if n := testing.AllocsPerRun(1000, func() {
		tr.Emit(TrackBus, KindBusGrant, 1, 2, 3, 4)
	}); n != 0 {
		t.Fatalf("warm ring emission allocates %v allocs/op, want 0", n)
	}
}

func emitSample(tr *Trace) {
	tr.BeginProcess("machine-a")
	tr.Emit(TrackL2, KindL2Read, 10, 60, 0x1000, 1)
	tr.Emit(TrackIntegrity, KindTreeWalk, 12, 55, 3, 2)
	tr.Emit(TrackHash, KindHashJob, 20, 40, 64, 0)
	tr.Emit(TrackBus, KindBusGrant, 15, 25, 64, 0)
	tr.Emit(TrackBus, KindBusGrant, 25, 35, 20, 1)
	tr.Emit(TrackDRAM, KindDRAMRead, 15, 35, 64, 0)
	// Overlapping L2 spans force a second lane.
	tr.Emit(TrackL2, KindL2Read, 30, 80, 0x2000, 1)
	tr.Emit(TrackL2, KindL2Write, 40, 45, 0x3000, 0)
	tr.BeginProcess("machine-b")
	tr.Emit(TrackL2, KindL2Read, 5, 9, 0x4000, 0)
}

func TestChromeExportValidatesAndIsDeterministic(t *testing.T) {
	tr := NewTrace(0)
	emitSample(tr)
	var a, b bytes.Buffer
	if err := tr.WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("repeated export of the same trace differs")
	}
	spans, err := ValidateChromeTrace(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatalf("exported trace fails validation: %v\n%s", err, a.String())
	}
	if spans != 9 {
		t.Fatalf("validator saw %d spans, want 9", spans)
	}
	for _, want := range []string{`"machine-a"`, `"machine-b"`, `"L2"`, `"bus"`, `"tree-walk"`, `"class":"hash"`} {
		if !strings.Contains(a.String(), want) {
			t.Fatalf("export missing %s:\n%s", want, a.String())
		}
	}
}

func TestChromeExportRingWrap(t *testing.T) {
	tr := NewTrace(8)
	for i := uint64(0); i < 100; i++ {
		tr.Emit(TrackBus, KindBusGrant, i*10, i*10+5, 64, 0)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	spans, err := ValidateChromeTrace(&buf)
	if err != nil {
		t.Fatalf("wrapped trace fails validation: %v", err)
	}
	if spans != 8 {
		t.Fatalf("wrapped trace has %d spans, want 8", spans)
	}
}

func TestValidatorRejectsBadTraces(t *testing.T) {
	cases := map[string]string{
		"not json":      `{"traceEvents":[`,
		"no events":     `{"traceEvents":[]}`,
		"missing dur":   `{"traceEvents":[{"ph":"X","pid":0,"tid":0,"ts":1,"name":"x"}]}`,
		"bad phase":     `{"traceEvents":[{"ph":"B","pid":0,"tid":0,"ts":1,"name":"x"}]}`,
		"non-monotonic": `{"traceEvents":[{"ph":"X","pid":0,"tid":0,"ts":10,"dur":1,"name":"a"},{"ph":"X","pid":0,"tid":0,"ts":5,"dur":1,"name":"b"}]}`,
		"partial overlap": `{"traceEvents":[
			{"ph":"X","pid":0,"tid":0,"ts":0,"dur":10,"name":"a"},
			{"ph":"X","pid":0,"tid":0,"ts":5,"dur":10,"name":"b"}]}`,
	}
	for name, doc := range cases {
		if _, err := ValidateChromeTrace(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: validator accepted invalid trace", name)
		}
	}
	// Containment on one thread is legal nesting.
	ok := `{"traceEvents":[
		{"ph":"X","pid":0,"tid":0,"ts":0,"dur":10,"name":"outer"},
		{"ph":"X","pid":0,"tid":0,"ts":2,"dur":3,"name":"inner"},
		{"ph":"X","pid":0,"tid":0,"ts":6,"dur":4,"name":"inner2"}]}`
	if _, err := ValidateChromeTrace(strings.NewReader(ok)); err != nil {
		t.Errorf("validator rejected well-nested trace: %v", err)
	}
}

func TestRegistryJSONDeterministicAndValid(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Add("z.last", 3)
		r.Add("a.first", 1)
		r.Add("a.first", 1)
		r.SetGauge("util", 0.3333333)
		h := stats.NewHistogram(10, 100)
		h.Observe(5)
		h.Observe(50)
		h.Observe(500)
		r.MergeHistogram("lat", h)
		r.AppendSeries("bus.windows", 1, 2, 3)
		return r
	}
	var a, b bytes.Buffer
	if err := build().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("registry JSON not deterministic:\n%s\nvs\n%s", a.String(), b.String())
	}
	if err := ValidateMetrics(bytes.NewReader(a.Bytes())); err != nil {
		t.Fatalf("registry snapshot fails schema validation: %v\n%s", err, a.String())
	}
	out := a.String()
	if strings.Index(out, `"a.first"`) > strings.Index(out, `"z.last"`) {
		t.Fatal("counter keys not sorted")
	}
	if !strings.Contains(out, `"a.first": 2`) {
		t.Fatalf("Add did not accumulate:\n%s", out)
	}
	if !strings.Contains(out, `"util": 0.333333`) {
		t.Fatalf("gauge not fixed-format:\n%s", out)
	}
}

func TestValidateMetricsRejectsBadSnapshots(t *testing.T) {
	cases := map[string]string{
		"bad schema": `{"schema":"other","counters":{},"gauges":{},"histograms":{},"series":{}}`,
		"bucket/bound mismatch": `{"schema":"memverify-metrics-v1","counters":{},"gauges":{},
			"histograms":{"h":{"bounds":[1,2],"buckets":[1,2],"count":3,"max":0,"mean":0,"p50":0,"p90":0,"p99":0,"sum":0}},"series":{}}`,
		"count mismatch": `{"schema":"memverify-metrics-v1","counters":{},"gauges":{},
			"histograms":{"h":{"bounds":[1],"buckets":[1,1],"count":3,"max":0,"mean":0,"p50":0,"p90":0,"p99":0,"sum":0}},"series":{}}`,
	}
	for name, doc := range cases {
		if err := ValidateMetrics(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: validator accepted invalid metrics", name)
		}
	}
}

func TestMeter(t *testing.T) {
	var buf bytes.Buffer
	m := NewMeter(&buf, "fig5")
	m.StartBatch(2)
	m.Tick()
	m.Tick()
	m.Finish()
	out := buf.String()
	if !strings.Contains(out, "fig5: 2/2 points") {
		t.Fatalf("meter output missing completion line: %q", out)
	}
	if !strings.Contains(out, "pts/s") || !strings.Contains(out, "eta done") {
		t.Fatalf("meter output missing rate/eta: %q", out)
	}
}

func TestRecorderFillRegistry(t *testing.T) {
	rec := NewRecorder(16)
	rec.Trace.Emit(TrackHash, KindHashJob, 0, 10, 64, 0)
	rec.Probes.VerifyOverhead.Observe(120)
	reg := NewRegistry()
	rec.FillRegistry(reg)
	if reg.Counter("trace.events_total") != 1 {
		t.Fatal("trace totals not filled")
	}
	if h := reg.Histogram("integrity.verify_overhead_cycles"); h == nil || h.Count() != 1 {
		t.Fatal("probe histogram not merged")
	}
	// Nil recorder must be a no-op.
	var nilRec *Recorder
	nilRec.FillRegistry(reg)
}

func TestMergeInto(t *testing.T) {
	src := NewRegistry()
	src.Add("a", 3)
	src.SetGauge("g", 1.5)
	src.AppendSeries("s", 1, 2)

	dst := NewRegistry()
	dst.Add("a", 1)
	dst.Add("b", 7)
	src.MergeInto(dst)

	if dst.Counter("a") != 4 || dst.Counter("b") != 7 {
		t.Fatalf("counters after merge: a=%d b=%d", dst.Counter("a"), dst.Counter("b"))
	}
	if dst.gauges["g"] != 1.5 {
		t.Fatalf("gauge after merge: %v", dst.gauges["g"])
	}
	if len(dst.series["s"]) != 2 {
		t.Fatalf("series after merge: %v", dst.series["s"])
	}
	// The source must be untouched.
	if src.Counter("a") != 3 || src.Counter("b") != 0 {
		t.Fatalf("merge mutated the source: a=%d b=%d", src.Counter("a"), src.Counter("b"))
	}
}
