package obs

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memverify/internal/telemetry"
)

// scriptedClock returns a now() that yields base, base+step, base+2*step...
func scriptedClock(base time.Time, step time.Duration) func() time.Time {
	var calls int64
	return func() time.Time {
		n := atomic.AddInt64(&calls, 1) - 1
		return base.Add(time.Duration(n) * step)
	}
}

func TestSamplerWindowedRates(t *testing.T) {
	var ops, ckpts, ckptNanos uint64
	fill := func(reg *telemetry.Registry) {
		reg.Add("shard.ops_submitted", ops)
		reg.Add("persist.checkpoints", ckpts)
		reg.Add("persist.checkpoint_nanos", ckptNanos)
		reg.SetGauge("bus.utilization", 0.25)
	}
	s := NewSampler(fill, time.Second, 16)
	s.now = scriptedClock(time.Unix(1000, 0), 2*time.Second)

	ops = 100
	first := s.SampleNow()
	if len(first.Rates) != 0 || first.Elapsed != 0 {
		t.Fatalf("first round must have no window: %+v", first)
	}
	if got := first.Derived[SeriesBusUtilization]; got != 0.25 {
		t.Fatalf("bus utilization level missing on first round: %v", got)
	}

	// 1000 more ops and 2 checkpoints totalling 3ms over a 2s window.
	ops, ckpts, ckptNanos = 1100, 2, 3_000_000
	sm := s.SampleNow()
	if sm.Elapsed != 2*time.Second {
		t.Fatalf("elapsed = %v, want 2s", sm.Elapsed)
	}
	if got := sm.Rates["shard.ops_submitted"]; got != 500 {
		t.Errorf("ops rate = %v, want 500", got)
	}
	if got := sm.Derived[SeriesOpsPerSec]; got != 500 {
		t.Errorf("derived ops/sec = %v, want 500", got)
	}
	if got := sm.Derived[SeriesCheckpointLatency]; got != 1_500_000 {
		t.Errorf("checkpoint latency = %v, want 1.5e6 ns", got)
	}

	if v, ok := s.Latest(SeriesOpsPerSec); !ok || v != 500 {
		t.Errorf("Latest(ops_per_sec) = %v, %t", v, ok)
	}
	if pts := s.Series("rate.shard.ops_submitted"); len(pts) != 1 || pts[0].Value != 500 {
		t.Errorf("rate series = %+v", pts)
	}
	if s.Rounds() != 2 {
		t.Errorf("rounds = %d, want 2", s.Rounds())
	}
}

func TestSamplerSkipsAppearingAndResetCounters(t *testing.T) {
	round := 0
	fill := func(reg *telemetry.Registry) {
		switch round {
		case 0:
			reg.Add("steady", 10)
			reg.Add("resetting", 100)
		default:
			reg.Add("steady", 20)
			reg.Add("resetting", 5) // went backwards: source reset
			reg.Add("appeared", 7)  // no previous value
		}
	}
	s := NewSampler(fill, time.Second, 16)
	s.now = scriptedClock(time.Unix(2000, 0), time.Second)
	s.SampleNow()
	round = 1
	sm := s.SampleNow()
	if got := sm.Rates["steady"]; got != 10 {
		t.Errorf("steady rate = %v, want 10", got)
	}
	if _, ok := sm.Rates["resetting"]; ok {
		t.Errorf("reset counter produced a rate: %+v", sm.Rates)
	}
	if _, ok := sm.Rates["appeared"]; ok {
		t.Errorf("appearing counter produced a rate: %+v", sm.Rates)
	}
}

func TestRingWraparound(t *testing.T) {
	r := newRing(3)
	for i := 0; i < 5; i++ {
		r.push(Point{Value: float64(i)})
	}
	pts := r.points()
	if len(pts) != 3 {
		t.Fatalf("retained %d points, want 3", len(pts))
	}
	for i, want := range []float64{2, 3, 4} {
		if pts[i].Value != want {
			t.Errorf("points[%d] = %v, want %v (oldest-first)", i, pts[i].Value, want)
		}
	}
}

func TestSamplerRingBoundedAcrossRounds(t *testing.T) {
	var ops uint64
	s := NewSampler(func(reg *telemetry.Registry) { reg.Add("c", ops) }, time.Second, 4)
	s.now = scriptedClock(time.Unix(3000, 0), time.Second)
	for i := 0; i < 10; i++ {
		ops += 100
		s.SampleNow()
	}
	pts := s.Series("rate.c")
	if len(pts) != 4 {
		t.Fatalf("series retained %d points, want ring bound 4", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if !pts[i].At.After(pts[i-1].At) {
			t.Errorf("points not oldest-first: %+v", pts)
		}
	}
}

func TestSamplerQuantile(t *testing.T) {
	vals := []uint64{10, 90, 40, 20, 30, 70, 50, 80, 60, 100}
	var cum uint64
	i := 0
	s := NewSampler(func(reg *telemetry.Registry) {
		if i < len(vals) {
			cum += vals[i]
		}
		reg.Add("c", cum)
	}, time.Second, 32)
	s.now = scriptedClock(time.Unix(4000, 0), time.Second)
	s.SampleNow() // priming round, no rate
	for i = 0; i < len(vals); i++ {
		s.SampleNow()
	}
	// The rate series now holds exactly vals (1s windows).
	if v, ok := s.Quantile("rate.c", 0.50); !ok || v != 50 {
		t.Errorf("p50 = %v, %t; want 50 (nearest rank over 10..100)", v, ok)
	}
	if v, ok := s.Quantile("rate.c", 0.99); !ok || v != 90 {
		t.Errorf("p99 = %v, %t; want 90 (nearest rank, n=10)", v, ok)
	}
	if v, ok := s.Quantile("rate.c", 1); !ok || v != 100 {
		t.Errorf("p100 = %v, %t; want 100", v, ok)
	}
	if _, ok := s.Quantile("missing", 0.5); ok {
		t.Error("quantile over unknown series reported ok")
	}
}

func TestSamplerStopMakesSampleNowNoop(t *testing.T) {
	var fills atomic.Uint64
	s := NewSampler(func(reg *telemetry.Registry) { fills.Add(1) }, time.Hour, 4)
	s.SampleNow()
	s.Stop()
	if sm := s.SampleNow(); sm.Counters != nil {
		t.Errorf("SampleNow after Stop returned a live sample: %+v", sm)
	}
	if fills.Load() != 1 {
		t.Errorf("fill ran %d times, want 1 — fills after Stop race store teardown", fills.Load())
	}
	s.Stop() // idempotent
}

func TestSamplerSnapshotInto(t *testing.T) {
	s := NewSampler(func(reg *telemetry.Registry) {
		reg.Add("c", 42)
		reg.SetGauge("g", 2.5)
	}, time.Second, 4)
	dst := telemetry.NewRegistry()
	if s.SnapshotInto(dst) {
		t.Fatal("snapshot reported before any round")
	}
	s.SampleNow()
	if !s.SnapshotInto(dst) {
		t.Fatal("no snapshot after a round")
	}
	if dst.Counter("c") != 42 {
		t.Errorf("snapshot counter = %d, want 42", dst.Counter("c"))
	}
}

// TestSamplerConcurrentScrape exercises the scrape surface while the
// ticker goroutine samples; run under -race this is the locking proof.
func TestSamplerConcurrentScrape(t *testing.T) {
	var ops atomic.Uint64
	s := NewSampler(func(reg *telemetry.Registry) {
		reg.Add("shard.ops_submitted", ops.Load())
	}, time.Millisecond, 32)
	s.Start()
	defer s.Stop()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ops.Add(17)
				s.Series("rate.shard.ops_submitted")
				s.Quantile(SeriesOpsPerSec, 0.99)
				s.DerivedGauges()
				dst := telemetry.NewRegistry()
				s.SnapshotInto(dst)
			}
		}()
	}
	time.Sleep(30 * time.Millisecond)
	close(stop)
	wg.Wait()
	if s.Rounds() == 0 {
		t.Error("ticker never sampled")
	}
}

// TestDisabledPathZeroAlloc pins the contract that a disabled recorder,
// sampler or server allocates nothing: every nil-receiver method a
// caller may thread unconditionally must be free.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var fr *FlightRecorder
	var s *Sampler
	var srv *Server
	allocs := testing.AllocsPerRun(100, func() {
		fr.Record(EvViolation, 3, 17, "detail")
		fr.Events()
		s.SampleNow()
		s.Rounds()
		srv.StopSampling()
		srv.Publish(nil)
	})
	if allocs != 0 {
		t.Errorf("disabled path allocates %v per op, want 0", allocs)
	}
}
