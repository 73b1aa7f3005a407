package telemetry

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestWriteChromeTraceProcesses pins the process split of the export:
// each BeginProcess mark renders as its own process (pids in mark order,
// names preserved), the events after a mark land in its process, and the
// document still passes the nesting/monotonicity validator.
func TestWriteChromeTraceProcesses(t *testing.T) {
	tr := NewTrace(64)
	for p, name := range []string{"c/swim", "m/swim", "i/swim"} {
		tr.BeginProcess(name)
		for i := uint64(0); i < 5; i++ {
			base := uint64(p) * 50
			tr.Emit(TrackL2, KindL2Read, base+10*i, base+10*i+4, i, 0)
			tr.Emit(TrackBus, KindBusGrant, base+10*i, base+10*i+8, 64, 1)
		}
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for pid, name := range []string{"c/swim", "m/swim", "i/swim"} {
		want := fmt.Sprintf(`{"ph":"M","pid":%d,"tid":0,"name":"process_name","args":{"name":"%s"}}`, pid, name)
		if !strings.Contains(out, want) {
			t.Errorf("trace missing process metadata for %s (pid %d)", name, pid)
		}
		if n := strings.Count(out, fmt.Sprintf(`{"ph":"X","pid":%d,`, pid)); n != 10 {
			t.Errorf("process %s holds %d spans, want 10", name, n)
		}
	}
	spans, err := ValidateChromeTrace(strings.NewReader(out))
	if err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if spans != 30 {
		t.Errorf("trace has %d spans, want 30", spans)
	}
}

// TestWriteChromeTraceEmptyKeepsSkeleton: a trace with no events, marked
// or not, still exports a metadata-only document naming its process, so downstream tooling never has to special-case.
func TestWriteChromeTraceEmptyKeepsSkeleton(t *testing.T) {
	marked := NewTrace(16)
	marked.BeginProcess("m")
	for _, tc := range []struct {
		tr   *Trace
		name string
	}{{nil, "machine"}, {NewTrace(16), "machine"}, {marked, "m"}} {
		var buf bytes.Buffer
		if err := tc.tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf(`"name":"process_name","args":{"name":"%s"}`, tc.name)
		if !strings.Contains(buf.String(), want) {
			t.Errorf("empty export lost its metadata skeleton: want %s in\n%s", want, buf.String())
		}
	}
}
