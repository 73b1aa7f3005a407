package obs

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// FlightSchema identifies the dump layout for downstream tooling.
const FlightSchema = "memverify-flight-v1"

// Flight-recorder event kinds. The taxonomy is deliberately small: only
// state transitions an operator would page on (or want as post-mortem
// evidence) belong here — per-access events live in the telemetry trace.
const (
	// EvViolation: one detected integrity violation, attributed to its
	// shard. Detail carries the engine's message.
	EvViolation = "violation"
	// EvShardHalt: a shard tripped the halt policy and stopped serving.
	EvShardHalt = "shard-halt"
	// EvCheckpointIntent / EvCheckpointCommit / EvCheckpointSeal: the
	// persistence commit protocol's three externally visible transitions —
	// intent record fsynced, manifest renamed, commit record fsynced.
	EvCheckpointIntent = "checkpoint-intent"
	EvCheckpointCommit = "checkpoint-commit"
	EvCheckpointSeal   = "checkpoint-seal"
	// EvRecovery: a recovery classified (detail holds the outcome).
	EvRecovery = "recovery"
	// EvRetryExhausted: a persistence I/O operation failed even after the
	// bounded-backoff retries.
	EvRetryExhausted = "retry-exhausted"
	// EvRunStart / EvRunEnd bracket the daemon's serving phase.
	EvRunStart = "run-start"
	EvRunEnd   = "run-end"
	// EvTamper: the armed tamper endpoint deliberately corrupted a shard
	// (the must-fail legs); present so a dump distinguishes injected
	// faults from found ones.
	EvTamper = "tamper"
	// EvSignal: the process received SIGINT/SIGTERM and is shutting down
	// gracefully; recorded before the flight dump so a signal-path dump is
	// distinguishable from a natural run end.
	EvSignal = "signal"
)

// FlightEvent is one recorded high-significance event. Shard is -1 when
// the event is not attributable to a shard; Epoch is 0 when no barrier
// epoch applies.
type FlightEvent struct {
	Seq       uint64
	WallNanos int64
	Kind      string
	Shard     int
	Epoch     uint64
	Detail    string
}

// FlightRecorder is a bounded, concurrency-safe ring of FlightEvents —
// the crash flight recorder. The newest events win. A nil recorder is the
// disabled state: Record on nil is a no-op, so callers thread one
// unconditionally.
type FlightRecorder struct {
	mu   sync.Mutex
	ring []FlightEvent
	seq  uint64
	now  func() time.Time
}

// DefaultFlightEvents bounds the recorder at roughly 64 KiB of retained
// evidence — enough for thousands of checkpoints around a crash.
const DefaultFlightEvents = 1024

// NewFlightRecorder returns a recorder retaining at most capacity events
// (<= 0 selects DefaultFlightEvents).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightEvents
	}
	return &FlightRecorder{ring: make([]FlightEvent, 0, capacity), now: time.Now}
}

// Record appends one event. Safe from any goroutine, and free on a nil
// recorder.
func (f *FlightRecorder) Record(kind string, shard int, epoch uint64, detail string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	ev := FlightEvent{
		Seq:       f.seq,
		WallNanos: f.now().UnixNano(),
		Kind:      kind,
		Shard:     shard,
		Epoch:     epoch,
		Detail:    detail,
	}
	if len(f.ring) < cap(f.ring) {
		f.ring = append(f.ring, ev)
	} else {
		f.ring[f.seq%uint64(cap(f.ring))] = ev
	}
	f.seq++
	f.mu.Unlock()
}

// Events returns the retained events oldest-first (a copy). Nil-safe.
func (f *FlightRecorder) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightEvent, 0, len(f.ring))
	if len(f.ring) < cap(f.ring) {
		out = append(out, f.ring...)
	} else {
		head := int(f.seq % uint64(cap(f.ring)))
		out = append(out, f.ring[head:]...)
		out = append(out, f.ring[:head]...)
	}
	return out
}

// Total returns the number of events ever recorded; Dropped how many the
// ring overwrote.
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

// Dropped returns how many events the bounded ring discarded.
func (f *FlightRecorder) Dropped() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq - uint64(len(f.ring))
}

// WriteJSON dumps the retained events as deterministic sorted-key JSON
// (keys sorted within every object, no map iteration). Nil-safe: a nil
// recorder writes an empty dump.
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	evs := f.Events()
	var err error
	pr := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	pr("{\n  \"dropped\": %d,\n  \"events\": [", f.Dropped())
	for i, ev := range evs {
		if i > 0 {
			pr(",")
		}
		pr("\n    {\"detail\": %q, \"epoch\": %d, \"kind\": %q, \"seq\": %d, \"shard\": %d, \"wall_nanos\": %d}",
			ev.Detail, ev.Epoch, ev.Kind, ev.Seq, ev.Shard, ev.WallNanos)
	}
	pr("\n  ],\n  \"schema\": %q,\n  \"total\": %d\n}\n", FlightSchema, f.Total())
	return err
}

// DumpFile writes the dump to path (truncating). Nil-safe no-op when the
// recorder is nil AND path is empty; a nil recorder with a path still
// writes an empty dump so post-mortem tooling always finds a file.
func (f *FlightRecorder) DumpFile(path string) error {
	if path == "" {
		return nil
	}
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := f.WriteJSON(file)
	cerr := file.Close()
	if werr != nil {
		return fmt.Errorf("writing flight record %s: %w", path, werr)
	}
	if cerr != nil {
		return fmt.Errorf("writing flight record %s: %w", path, cerr)
	}
	return nil
}
