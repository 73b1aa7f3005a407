package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestFlightRecorderRingBounds(t *testing.T) {
	fr := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		fr.Record(EvViolation, i, uint64(i), "e")
	}
	evs := fr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Seq != want {
			t.Errorf("events[%d].Seq = %d, want %d (oldest-first, newest win)", i, ev.Seq, want)
		}
	}
	if fr.Total() != 10 || fr.Dropped() != 6 {
		t.Errorf("total/dropped = %d/%d, want 10/6", fr.Total(), fr.Dropped())
	}
}

func TestFlightRecorderJSONDeterministic(t *testing.T) {
	fr := NewFlightRecorder(8)
	fr.now = func() time.Time { return time.Unix(5, 500) }
	fr.Record(EvViolation, 1, 313, "hash mismatch addr=0x40")
	fr.Record(EvShardHalt, 1, 313, "halt policy tripped")

	var a, b strings.Builder
	if err := fr.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := fr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two dumps of the same recorder differ")
	}
	want := `{
  "dropped": 0,
  "events": [
    {"detail": "hash mismatch addr=0x40", "epoch": 313, "kind": "violation", "seq": 0, "shard": 1, "wall_nanos": 5000000500},
    {"detail": "halt policy tripped", "epoch": 313, "kind": "shard-halt", "seq": 1, "shard": 1, "wall_nanos": 5000000500}
  ],
  "schema": "memverify-flight-v1",
  "total": 2
}
`
	if a.String() != want {
		t.Errorf("dump layout:\n got %s want %s", a.String(), want)
	}
}

func TestFlightRecorderNil(t *testing.T) {
	var fr *FlightRecorder
	fr.Record(EvSignal, -1, 0, "no-op")
	if evs := fr.Events(); evs != nil {
		t.Errorf("nil recorder has events: %+v", evs)
	}
	path := filepath.Join(t.TempDir(), "flight.json")
	if err := fr.DumpFile(path); err != nil {
		t.Fatalf("nil recorder dump: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("nil recorder with a path must still write a dump: %v", err)
	}
	if !strings.Contains(string(data), FlightSchema) {
		t.Errorf("empty dump missing schema: %s", data)
	}
	if err := fr.DumpFile(""); err != nil {
		t.Errorf("empty path: %v", err)
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	fr := NewFlightRecorder(64)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				fr.Record(EvCheckpointCommit, g, uint64(i), "c")
				fr.Events()
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if fr.Total() != 800 {
		t.Errorf("total = %d, want 800", fr.Total())
	}
}
