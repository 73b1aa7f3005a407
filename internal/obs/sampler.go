// Package obs is the live operations surface over the simulator's
// telemetry: a periodic sampler that turns the cumulative counters of a
// telemetry.Registry into windowed rates and rolling quantiles, an HTTP
// ops server exposing Prometheus text metrics, health endpoints and
// pprof, and a crash flight recorder that preserves high-significance
// events (violations, checkpoints, recoveries) for post-mortems.
//
// The layering contract: obs depends only on internal/telemetry and
// internal/stats. The daemon (cmd/memverifyd) glues its stores in
// through two closures — a Fill func that snapshots live counters into
// a fresh registry, and a HealthFunc — so the package never imports the engine and the engine never imports
// the package. Every method is nil-safe, which is what keeps the
// disabled path allocation-free.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"memverify/internal/telemetry"
)

// DefaultSampleEvery is the sampling cadence when none is configured.
const DefaultSampleEvery = time.Second

// DefaultRingPoints bounds each time-series ring: at one sample per
// second, 512 points is ~8.5 minutes of history per metric.
const DefaultRingPoints = 512

// Derived series names — the windowed signals the sampler computes on
// top of the raw counter rates. Each is a bounded ring queryable with
// Series/Latest/Quantile and exported as sampler_* gauges in /metrics.
const (
	// SeriesOpsPerSec / SeriesBytesPerSec: caller-level operation and byte
	// throughput over the last window (rate of shard.ops_submitted /
	// shard.bytes_submitted).
	SeriesOpsPerSec   = "ops_per_sec"
	SeriesBytesPerSec = "bytes_per_sec"
	// SeriesViolationsPerSec: integrity violations detected per second.
	SeriesViolationsPerSec = "violations_per_sec"
	// SeriesBusUtilization: the bus.utilization gauge, sampled.
	SeriesBusUtilization = "bus_utilization"
	// SeriesCheckpointLatency / SeriesRecoveryLatency: mean nanoseconds
	// per checkpoint / recovery completed inside the window (delta of
	// persist.*_nanos over delta of completions).
	SeriesCheckpointLatency = "checkpoint_latency_nanos"
	SeriesRecoveryLatency   = "recovery_latency_nanos"
)

// Point is one sampled value.
type Point struct {
	At    time.Time
	Value float64
}

// ring is a bounded time-series buffer; the newest points win.
type ring struct {
	buf  []Point
	n    int // points ever pushed
	next int
}

func newRing(points int) *ring { return &ring{buf: make([]Point, 0, points)} }

func (r *ring) push(p Point) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, p)
	} else {
		r.buf[r.next] = p
	}
	r.next = (r.next + 1) % cap(r.buf)
	r.n++
}

// points returns the retained points oldest-first (a copy).
func (r *ring) points() []Point {
	out := make([]Point, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		return append(out, r.buf...)
	}
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Sample is one sampling round's output, returned by SampleNow and
// delivered to OnSample.
type Sample struct {
	At      time.Time
	Elapsed time.Duration // since the previous sample (0 on the first)
	// Counters holds the cumulative counter values of this snapshot;
	// Rates their per-second deltas since the previous sample (absent on
	// the first round). Gauges are the snapshot's gauges verbatim, and
	// Derived the named series documented on the Series* constants.
	Counters map[string]uint64
	Rates    map[string]float64
	Gauges   map[string]float64
	Derived  map[string]float64
}

// Sampler periodically snapshots a live registry (via the driver's Fill
// closure) and maintains bounded per-metric time-series rings of windowed
// rates, sampled gauges and derived signals. Scraping (/metrics, /vars)
// and sampling share one mutex, so a scrape always sees a complete,
// consistent round.
type Sampler struct {
	fill   func(*telemetry.Registry)
	every  time.Duration
	points int

	// OnSample, when non-nil, receives every completed round (outside the
	// sampler lock). Set before Start.
	OnSample func(Sample)

	now func() time.Time // injectable clock for tests

	mu           sync.Mutex
	last         *telemetry.Registry
	prevAt       time.Time
	prevCounters map[string]uint64
	series       map[string]*ring
	rounds       uint64

	startOnce sync.Once
	stopOnce  sync.Once
	stopped   atomic.Bool
	stop      chan struct{}
	done      chan struct{}
}

// NewSampler returns a sampler snapshotting through fill every interval
// (<= 0 selects DefaultSampleEvery) into rings of the given point count
// (<= 0 selects DefaultRingPoints). fill runs on the sampler goroutine
// (and on scrape-triggered SampleNow callers) and must be safe to call
// concurrently with the workload — the sharded store's FillRegistry
// routes through the shard workers, which satisfies that.
func NewSampler(fill func(*telemetry.Registry), every time.Duration, points int) *Sampler {
	if every <= 0 {
		every = DefaultSampleEvery
	}
	if points <= 0 {
		points = DefaultRingPoints
	}
	return &Sampler{
		fill:   fill,
		every:  every,
		points: points,
		now:    time.Now,
		series: map[string]*ring{},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Every returns the sampling interval.
func (s *Sampler) Every() time.Duration { return s.every }

// Start launches the ticker goroutine. Nil-safe; calling twice is a
// no-op.
func (s *Sampler) Start() {
	if s == nil {
		return
	}
	s.startOnce.Do(func() {
		go func() {
			defer close(s.done)
			tick := time.NewTicker(s.every)
			defer tick.Stop()
			for {
				select {
				case <-s.stop:
					return
				case <-tick.C:
					s.SampleNow()
				}
			}
		}()
	})
}

// Stop halts the ticker goroutine and waits for it to exit. Nil-safe and
// idempotent. After Stop the rings and the last snapshot remain readable
// but SampleNow becomes a no-op — Fill must never run once the driver
// has started tearing its store down, even from a late scrape.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.stopped.Store(true)
	s.stopOnce.Do(func() { close(s.stop) })
	s.startOnce.Do(func() { close(s.done) }) // never started: unblock the wait
	<-s.done
}

// SampleNow performs one sampling round immediately and returns it.
// Nil-safe (returns a zero Sample); a no-op after Stop.
func (s *Sampler) SampleNow() Sample {
	if s == nil || s.fill == nil || s.stopped.Load() {
		return Sample{}
	}
	reg := telemetry.NewRegistry()
	s.fill(reg)
	at := s.now()

	s.mu.Lock()
	sm := Sample{
		At:       at,
		Counters: map[string]uint64{},
		Rates:    map[string]float64{},
		Gauges:   map[string]float64{},
		Derived:  map[string]float64{},
	}
	reg.EachCounter(func(name string, v uint64) { sm.Counters[name] = v })
	reg.EachGauge(func(name string, v float64) { sm.Gauges[name] = v })

	first := s.rounds == 0
	if !first {
		sm.Elapsed = at.Sub(s.prevAt)
	}
	sec := sm.Elapsed.Seconds()
	if !first && sec > 0 {
		for name, cur := range sm.Counters {
			prev, ok := s.prevCounters[name]
			if !ok || cur < prev {
				// A counter that appeared mid-run (or a source reset)
				// has no meaningful window; skip this round for it.
				continue
			}
			sm.Rates[name] = float64(cur-prev) / sec
		}
		sm.Derived[SeriesOpsPerSec] = sm.Rates["shard.ops_submitted"]
		sm.Derived[SeriesBytesPerSec] = sm.Rates["shard.bytes_submitted"]
		sm.Derived[SeriesViolationsPerSec] = sm.Rates["integrity.violations"]
		if dn := delta(sm.Counters, s.prevCounters, "persist.checkpoint_nanos"); dn > 0 {
			if dc := delta(sm.Counters, s.prevCounters, "persist.checkpoints"); dc > 0 {
				sm.Derived[SeriesCheckpointLatency] = float64(dn) / float64(dc)
			}
		}
		if dn := delta(sm.Counters, s.prevCounters, "persist.recovery_nanos"); dn > 0 {
			if dc := delta(sm.Counters, s.prevCounters, "persist.recoveries"); dc > 0 {
				sm.Derived[SeriesRecoveryLatency] = float64(dn) / float64(dc)
			}
		}
	}
	// Level signals exist from the first round.
	if v, ok := sm.Gauges["bus.utilization"]; ok {
		sm.Derived[SeriesBusUtilization] = v
	}

	for name, v := range sm.Rates {
		s.push("rate."+name, Point{At: at, Value: v})
	}
	for name, v := range sm.Gauges {
		s.push("gauge."+name, Point{At: at, Value: v})
	}
	for name, v := range sm.Derived {
		s.push(name, Point{At: at, Value: v})
	}

	s.last = reg
	s.prevAt = at
	s.prevCounters = sm.Counters
	s.rounds++
	cb := s.OnSample
	s.mu.Unlock()

	if cb != nil {
		cb(sm)
	}
	return sm
}

func delta(cur, prev map[string]uint64, name string) uint64 {
	c, p := cur[name], prev[name]
	if c < p {
		return 0
	}
	return c - p
}

// push must run under s.mu.
func (s *Sampler) push(name string, p Point) {
	r, ok := s.series[name]
	if !ok {
		r = newRing(s.points)
		s.series[name] = r
	}
	r.push(p)
}

// Rounds returns the number of completed sampling rounds.
func (s *Sampler) Rounds() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rounds
}

// Series returns the retained points of the named series oldest-first
// (a copy), or nil. Raw counter rates live under "rate.<counter>",
// sampled gauges under "gauge.<gauge>", derived signals under their
// Series* names.
func (s *Sampler) Series(name string) []Point {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.series[name]
	if !ok {
		return nil
	}
	return r.points()
}

// Latest returns the newest point of the named series (ok == false when
// the series is empty or unknown).
func (s *Sampler) Latest(name string) (v float64, ok bool) {
	pts := s.Series(name)
	if len(pts) == 0 {
		return 0, false
	}
	return pts[len(pts)-1].Value, true
}

// Quantile returns the q-quantile (0 <= q <= 1, nearest-rank) over the
// named series' retained window — the "rolling quantile" of the ops
// surface. ok is false when the series is empty.
func (s *Sampler) Quantile(name string, q float64) (v float64, ok bool) {
	pts := s.Series(name)
	if len(pts) == 0 {
		return 0, false
	}
	vals := make([]float64, len(pts))
	for i, p := range pts {
		vals[i] = p.Value
	}
	sort.Float64s(vals)
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	i := int(q * float64(len(vals)-1))
	return vals[i], true
}

// SnapshotInto merges the most recent full registry snapshot into dst and
// reports whether a snapshot existed. The merge runs under the sampler
// lock; dst must be private to the caller.
func (s *Sampler) SnapshotInto(dst *telemetry.Registry) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.last == nil {
		return false
	}
	s.last.MergeInto(dst)
	return true
}

// DerivedGauges returns the sampler block for the Prometheus exposition:
// for every derived series with data, its latest value plus rolling p50
// and p99 under "<name>_p50" / "<name>_p99".
func (s *Sampler) DerivedGauges() map[string]float64 {
	out := map[string]float64{}
	if s == nil {
		return out
	}
	for _, name := range []string{
		SeriesOpsPerSec, SeriesBytesPerSec, SeriesViolationsPerSec,
		SeriesBusUtilization,
		SeriesCheckpointLatency, SeriesRecoveryLatency,
	} {
		if v, ok := s.Latest(name); ok {
			out[name] = v
			if p, ok := s.Quantile(name, 0.50); ok {
				out[name+"_p50"] = p
			}
			if p, ok := s.Quantile(name, 0.99); ok {
				out[name+"_p99"] = p
			}
		}
	}
	return out
}
