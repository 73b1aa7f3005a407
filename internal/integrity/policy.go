package integrity

import (
	"fmt"

	"memverify/internal/bus"
)

// ViolationPolicy selects what the machine does when a verification fails
// — the containment semantics layered on the paper's §5.8 security
// exception. Detection itself is identical under every policy: the
// violation is always visible in Stats and to OnViolation observers
// before the policy acts.
type ViolationPolicy int

const (
	// PolicyRecord counts the violation and continues execution — the
	// measurement-friendly default (attack demonstrations want to observe
	// every detection, not just the first).
	PolicyRecord ViolationPolicy = iota
	// PolicyHalt raises the security exception of §5.8: the machine stops
	// trusting its memory and every subsequent program load or store
	// returns core.ErrHalted. Enforcement lives in core.Machine; engines
	// only report.
	PolicyHalt
	// PolicyRetry re-fetches and re-verifies a failing chunk once before
	// recording a violation, distinguishing a transient bus or DRAM fault
	// (the re-read passes: counted in Stats.RetriesTransient, no violation)
	// from persistent tampering (the re-read fails too: counted in
	// Stats.RetriesPersistent and recorded as a violation).
	PolicyRetry
)

// String returns the policy's configuration name.
func (p ViolationPolicy) String() string {
	switch p {
	case PolicyRecord:
		return "record"
	case PolicyHalt:
		return "halt"
	case PolicyRetry:
		return "retry"
	}
	return fmt.Sprintf("ViolationPolicy(%d)", int(p))
}

// ParseViolationPolicy maps a configuration string to its policy. The
// empty string is PolicyRecord, so zero-valued configs keep today's
// behaviour.
func ParseViolationPolicy(s string) (ViolationPolicy, error) {
	switch s {
	case "", "record":
		return PolicyRecord, nil
	case "halt":
		return PolicyHalt, nil
	case "retry":
		return PolicyRetry, nil
	}
	return PolicyRecord, fmt.Errorf("integrity: unknown violation policy %q (want record, halt or retry)", s)
}

// retryVerify is the PolicyRetry probe: it charges one more chunk fetch
// from external memory plus a hash, re-runs the check over the freshly
// read bytes, and classifies the fault. compose selects how the probe
// image is assembled: true uses composeImage (the c/m/i invariant — clean
// cached blocks are trusted on-chip state), false reads the raw chunk
// from memory (the naive engine's view).
//
// The probe re-reads only the failing chunk; a transient that hit the
// stored record's own fetch still classifies as persistent. That is the
// conservative direction: a transient mistaken for tampering raises the
// exception a real fault deserves anyway, whereas the reverse would
// swallow an attack.
func (s *System) retryVerify(now uint64, c uint64, compose bool, check func(img []byte) bool) (passed bool, done uint64) {
	var img []byte
	if compose {
		img, _ = s.composeImage(c)
	} else {
		img = s.getImg()
		s.Mem.Read(s.Layout.ChunkAddr(c), img)
	}
	_, done = s.DRAM.Read(now, s.Layout.ChunkSize, bus.Hash)
	s.countExtra(uint64(s.chunkBlocks()))
	if hd := s.Unit.Hash(done, s.Layout.ChunkSize); hd > done {
		done = hd
	}
	passed = s.retried(check(img))
	s.putImg(img)
	return passed, done
}

// retried counts one PolicyRetry probe whose re-read verified clean
// (passed: a transient fault) or failed again (persistent tampering), and
// returns passed.
func (s *System) retried(passed bool) bool {
	s.Stat.Retries++
	if passed {
		s.Stat.RetriesTransient++
	} else {
		s.Stat.RetriesPersistent++
	}
	return passed
}
