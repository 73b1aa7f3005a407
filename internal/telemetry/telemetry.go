// Package telemetry is the simulator's observability layer: a bounded,
// cycle-accurate event trace exportable as Chrome trace-event JSON (loads
// in Perfetto / chrome://tracing), a metrics registry that snapshots
// per-component counters and latency histograms to deterministic JSON, and
// a live progress meter for long figure sweeps.
//
// The overhead contract is the load-bearing design constraint: every
// instrumented component holds a *Trace (or *stats.Histogram probe) that
// is nil by default, and every emission entry point is a nil-receiver
// no-op, so a simulation with telemetry disabled allocates nothing and
// runs within 2% of an uninstrumented build. The alloc half of the
// contract is pinned by TestDisabledEmissionZeroAllocs; the throughput
// half is ci.sh's telemetry overhead gate (BenchmarkTelemetryOverhead's
// disabled leg against BenchmarkSimulatorThroughput/c). The cost of
// tracing when enabled is the benchmark's trace.overhead_pct.
//
// A Trace is deliberately single-goroutine (like the machines it
// observes): enabling tracing on a figure sweep forces the sweep serial,
// which also keeps trace output byte-identical run to run.
package telemetry

import "memverify/internal/stats"

// Track identifies the component that emitted an event — one row group
// per track in the exported trace.
type Track uint8

// The instrumented components, in display order.
const (
	TrackL2        Track = iota // L2 accesses from the memory hierarchy
	TrackIntegrity              // tree-ancestor walks and write-backs
	TrackHash                   // hash-unit jobs
	TrackBus                    // bus grants
	TrackDRAM                   // DRAM transactions
	numTracks
)

// trackNames are the thread names the Chrome exporter writes.
var trackNames = [numTracks]string{"L2", "integrity", "hash-unit", "bus", "dram"}

// String returns the track's display name.
func (t Track) String() string {
	if int(t) < len(trackNames) {
		return trackNames[t]
	}
	return "unknown"
}

// Kind identifies what happened during an event's [Begin, End) span.
type Kind uint8

// Event kinds. The A/B argument meaning is per kind, documented here and
// rendered into Chrome "args" by the exporter.
const (
	// KindL2Read / KindL2Write: an L2 data access. A = address, B = 1 on
	// a miss (the span then covers the whole fill) and 0 on a hit.
	KindL2Read Kind = iota
	KindL2Write
	// KindTreeWalk: one ReadAndCheckChunk — record fetch, image compose,
	// background verification. A = chunk index, B = extra integrity block
	// reads the walk issued.
	KindTreeWalk
	// KindWriteBack: a dirty protected line draining through the engine.
	// A = chunk index, B = 0 (hash scheme) or 1 (incremental MAC update).
	KindWriteBack
	// KindHashJob: one chunk through the hash pipeline. A = bytes hashed.
	KindHashJob
	// KindBusGrant: one reserved transfer. A = bytes, B = class (0 data,
	// 1 hash).
	KindBusGrant
	// KindDRAMRead / KindDRAMWrite: one DRAM transaction. A = bytes.
	KindDRAMRead
	KindDRAMWrite
	numKinds
)

var kindNames = [numKinds]string{
	"l2-read", "l2-write", "tree-walk", "write-back",
	"hash-job", "bus-grant", "dram-read", "dram-write",
}

// String returns the kind's display name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one cycle-timestamped span. Events are fixed-size values so the
// ring buffer never allocates after construction.
type Event struct {
	Track Track
	Kind  Kind
	Begin uint64 // cycle the operation started
	End   uint64 // cycle it completed (>= Begin)
	A, B  uint64 // per-kind arguments, see the Kind constants
}

// procMark records that every event emitted at sequence >= Seq belongs to
// the named process (one process per simulated machine).
type procMark struct {
	Seq  uint64
	Name string
}

// DefaultEventCap is the default ring capacity: at ~48 bytes per event it
// bounds a trace at roughly 50 MB however long the run is; the newest
// events win.
const DefaultEventCap = 1 << 20

// Trace is a bounded ring-buffer event sink. A nil *Trace is the disabled
// state: Emit and BeginProcess on nil are no-ops, which is what makes the
// nil-sink fast path free. A non-nil Trace must only be used from one
// goroutine at a time.
type Trace struct {
	ring  []Event
	seq   uint64 // total events ever emitted
	procs []procMark
}

// NewTrace returns a trace retaining at most cap events (the most recent
// ones); cap <= 0 selects DefaultEventCap.
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultEventCap
	}
	return &Trace{ring: make([]Event, 0, capacity)}
}

// Emit records one event. Safe (and free) on a nil trace.
func (t *Trace) Emit(track Track, kind Kind, begin, end, a, b uint64) {
	if t == nil {
		return
	}
	ev := Event{Track: track, Kind: kind, Begin: begin, End: end, A: a, B: b}
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, ev)
	} else {
		t.ring[t.seq%uint64(cap(t.ring))] = ev
	}
	t.seq++
}

// BeginProcess marks the start of a new simulated machine: every event
// emitted from here until the next BeginProcess belongs to it. Traces with
// no process marks export everything under one "machine" process.
func (t *Trace) BeginProcess(name string) {
	if t == nil {
		return
	}
	t.procs = append(t.procs, procMark{Seq: t.seq, Name: name})
}

// Len returns the number of retained events; Total the number ever
// emitted; Dropped how many the ring overwrote.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return len(t.ring)
}

// Total returns the number of events ever emitted.
func (t *Trace) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.seq
}

// Dropped returns how many events the bounded ring discarded.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.seq - uint64(len(t.ring))
}

// retained returns the kept events oldest-first along with the sequence
// number of the first one.
func (t *Trace) retained() (evs []Event, firstSeq uint64) {
	if t == nil || len(t.ring) == 0 {
		return nil, 0
	}
	firstSeq = t.seq - uint64(len(t.ring))
	if len(t.ring) < cap(t.ring) {
		return t.ring, firstSeq
	}
	// Ring is full: oldest entry sits at seq % cap.
	out := make([]Event, 0, len(t.ring))
	head := int(t.seq % uint64(cap(t.ring)))
	out = append(out, t.ring[head:]...)
	out = append(out, t.ring[:head]...)
	return out, firstSeq
}

// Probes are the latency/occupancy histograms the instrumented components
// feed when telemetry is enabled. Individual histogram pointers are handed
// to the components; nil pointers (the default everywhere) disable the
// observation site.
type Probes struct {
	// VerifyOverhead distributes, per verified demand read, the cycles
	// between the data being ready for speculative use and its background
	// check completing — the per-access verification overhead of §5.8.
	VerifyOverhead *stats.Histogram
	// ReadBufOcc / WriteBufOcc distribute the number of busy hash-buffer
	// entries observed at each job's arrival (Figure 7's pressure).
	ReadBufOcc  *stats.Histogram
	WriteBufOcc *stats.Histogram
}

// NewProbes returns probes with bucket bounds sized for the simulator's
// cycle and buffer scales.
func NewProbes() *Probes {
	return &Probes{
		VerifyOverhead: stats.NewHistogram(25, 50, 100, 200, 400, 800, 1600, 3200),
		ReadBufOcc:     stats.NewHistogram(1, 2, 4, 8, 16, 32),
		WriteBufOcc:    stats.NewHistogram(1, 2, 4, 8, 16, 32),
	}
}

// DefaultBusWindowCycles is the default bus-utilization window width.
const DefaultBusWindowCycles = 10_000

// Recorder bundles one machine's (or one serial sweep's) telemetry: the
// event trace, the probe histograms and the bus-window configuration.
// A nil *Recorder disables everything.
type Recorder struct {
	Trace  *Trace
	Probes *Probes
	// BusWindowCycles enables windowed bus-occupancy accounting when > 0.
	BusWindowCycles uint64
}

// NewRecorder returns a recorder with a trace of the given capacity
// (<= 0 selects DefaultEventCap), fresh probes and default bus windows.
func NewRecorder(eventCap int) *Recorder {
	return &Recorder{
		Trace:           NewTrace(eventCap),
		Probes:          NewProbes(),
		BusWindowCycles: DefaultBusWindowCycles,
	}
}

// FillRegistry adds the recorder's own observations — trace volume and the
// probe histograms — to a registry snapshot.
func (r *Recorder) FillRegistry(reg *Registry) {
	if r == nil {
		return
	}
	if r.Trace != nil {
		reg.Add("trace.events_total", r.Trace.Total())
		reg.Add("trace.events_dropped", r.Trace.Dropped())
	}
	if p := r.Probes; p != nil {
		reg.MergeHistogram("integrity.verify_overhead_cycles", p.VerifyOverhead)
		reg.MergeHistogram("hash.read_buffer_occupancy", p.ReadBufOcc)
		reg.MergeHistogram("hash.write_buffer_occupancy", p.WriteBufOcc)
	}
}
