package integrity

import "fmt"

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
)

// String returns the policy's configuration name.
func (p ViolationPolicy) String() string {
	switch p {
	case PolicyRecord:
		return "record"
	case PolicyHalt:
		return "halt"
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
	}
	return PolicyRecord, fmt.Errorf("integrity: unknown violation policy %q (want record or halt)", s)
}
