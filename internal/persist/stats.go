package persist

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"memverify/internal/telemetry"
)

// RetryPolicy bounds the exponential backoff applied to transient
// persistence I/O failures.
type RetryPolicy struct {
	// Attempts is the total number of tries per operation (>= 1). 0
	// selects the default of 4.
	Attempts int
	// BaseDelay is the sleep before the first retry; each subsequent
	// retry doubles it. 0 selects 1ms. Campaigns set this to a nanosecond
	// so a 200-injection run doesn't sleep its way through CI.
	BaseDelay time.Duration
	// MaxDelay caps the doubled delay. 0 selects 100ms.
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 100 * time.Millisecond
	}
	return p
}

// Stats counts the persistence layer's activity. All fields but
// ChainLinks are monotonic; Fill publishes them under the persist.*
// namespace.
type Stats struct {
	Checkpoints     uint64 // completed checkpoints
	CheckpointFails uint64 // checkpoints abandoned on error
	BytesWritten    uint64 // segment + manifest + WAL payload bytes
	BaseSegments    uint64 // segments written that carry a whole image
	DeltaSegments   uint64 // segments written that carry only changed lines
	DeltaBytes      uint64 // bytes of those delta segments
	ChainLinks      uint64 // deltas in the longest shard chain as of the last checkpoint
	WALRecords      uint64 // sealed records appended (intent + commit)
	Retries         uint64 // individual I/O retries after transient errors
	RetryExhausted  uint64 // operations that failed even after retrying
	Recoveries      uint64 // recovery attempts
	RecoveredClean  uint64 // outcome: recovered-clean
	RecoveredTorn   uint64 // outcome: recovered-torn
	Violations      uint64 // outcome: violation
	CheckpointNanos uint64 // wall time inside Checkpoint
	RecoveryNanos   uint64 // wall time inside Recover
}

// Fill publishes the counters into a telemetry registry under persist.*.
func (s *Stats) Fill(reg *telemetry.Registry) {
	reg.Add("persist.checkpoints", s.Checkpoints)
	reg.Add("persist.checkpoint_fails", s.CheckpointFails)
	reg.Add("persist.bytes_written", s.BytesWritten)
	reg.Add("persist.base_segments", s.BaseSegments)
	reg.Add("persist.delta_segments", s.DeltaSegments)
	reg.Add("persist.delta_bytes", s.DeltaBytes)
	reg.SetGauge("persist.chain_links", max(reg.Gauge("persist.chain_links"), float64(s.ChainLinks)))
	reg.Add("persist.wal_records", s.WALRecords)
	reg.Add("persist.retries", s.Retries)
	reg.Add("persist.retry_exhausted", s.RetryExhausted)
	reg.Add("persist.recoveries", s.Recoveries)
	reg.Add("persist.recovered_clean", s.RecoveredClean)
	reg.Add("persist.recovered_torn", s.RecoveredTorn)
	reg.Add("persist.violations", s.Violations)
	reg.Add("persist.checkpoint_nanos", s.CheckpointNanos)
	reg.Add("persist.recovery_nanos", s.RecoveryNanos)
}

// NoteRecovery folds one recovery's classification and wall time into
// the counters — drivers call it on the Stats block they publish so
// recovery latency shows up as persist.recovery_nanos over
// persist.recoveries.
func (s *Stats) NoteRecovery(rec *Recovery) {
	if rec == nil {
		return
	}
	s.Recoveries++
	s.RecoveryNanos += uint64(rec.Elapsed)
	switch rec.Outcome {
	case OutcomeClean:
		s.RecoveredClean++
	case OutcomeTorn:
		s.RecoveredTorn++
	case OutcomeViolation:
		s.Violations++
	}
}

// retrier applies the policy to each operation, charging retries to the
// shared stats block. The shard lanes of a checkpoint call do at once:
// mu serializes the counts and the onExhausted hook.
type retrier struct {
	policy RetryPolicy
	stats  *Stats
	sleep  func(time.Duration) // swapped out by tests
	// onExhausted fires after an operation burned every attempt.
	onExhausted func(error)

	mu sync.Mutex
}

func newRetrier(policy RetryPolicy, stats *Stats) *retrier {
	return &retrier{policy: policy.withDefaults(), stats: stats, sleep: time.Sleep}
}

// do runs op, retrying transient failures with bounded exponential
// backoff. ErrKilled is never retried: it models the process dying, and a
// dead process does not get a second attempt. The final error is returned
// unwrapped-compatible (errors.Is sees the cause) once attempts are
// exhausted.
func (r *retrier) do(op func() error) error {
	delay := r.policy.BaseDelay
	var err error
	for attempt := 0; attempt < r.policy.Attempts; attempt++ {
		if attempt > 0 {
			r.mu.Lock()
			r.stats.Retries++
			r.mu.Unlock()
			r.sleep(delay)
			delay *= 2
			if delay > r.policy.MaxDelay {
				delay = r.policy.MaxDelay
			}
		}
		if err = op(); err == nil {
			return nil
		}
		if errors.Is(err, ErrKilled) {
			return err
		}
	}
	r.mu.Lock()
	r.stats.RetryExhausted++
	if r.onExhausted != nil {
		r.onExhausted(err)
	}
	r.mu.Unlock()
	return fmt.Errorf("persist: %d attempts exhausted: %w", r.policy.Attempts, err)
}
