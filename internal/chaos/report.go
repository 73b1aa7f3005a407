package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Injection is one row of a campaign report: what was attacked, what
// happened, and how fast.
type Injection struct {
	ID     int    `json:"id"`
	Kind   string `json:"kind"`
	Target string `json:"target"`
	Chunk  uint64 `json:"chunk"`
	Addr   uint64 `json:"addr"`

	Outcome string `json:"outcome"`

	// Accesses is how many post-injection program accesses ran; the
	// latency fields are set only for detected outcomes. LatencyCycles is
	// measured on the machine's cycle clock from the moment of injection.
	Accesses        int    `json:"accesses"`
	LatencyAccesses int    `json:"latency_accesses"`
	LatencyCycles   uint64 `json:"latency_cycles"`

	// ResidentAccesses counts post-injection accesses during which the
	// tampered block sat in the L2 while the violation was still
	// unflagged — the cache-residency undetected window.
	ResidentAccesses int `json:"resident_accesses"`

	// Observed/Healed report whether post-injection bus traffic read from
	// or wrote over the tampered region before classification.
	Observed bool `json:"observed"`
	Healed   bool `json:"healed"`
}

// Summary aggregates a campaign.
type Summary struct {
	Total         int     `json:"total"`
	DetectedLive  int     `json:"detected_live"`
	DetectedSweep int     `json:"detected_sweep"`
	Missed        int     `json:"missed"`
	DetectionRate float64 `json:"detection_rate"` // detected / total

	MeanLatencyAccesses float64 `json:"mean_latency_accesses"`
	MeanLatencyCycles   float64 `json:"mean_latency_cycles"`
	MaxResidentWindow   int     `json:"max_resident_window"`
}

// Report is one campaign's full result. Identical Config seeds produce
// byte-identical reports: every field is deterministic and serialization
// never iterates a map.
type Report struct {
	Seed   uint64 `json:"seed"`
	Scheme string `json:"scheme"`
	Policy string `json:"policy"`

	Injections []Injection `json:"injections"`
	Summary    Summary     `json:"summary"`
}

// summarize recomputes the Summary from the injection rows.
func (r *Report) summarize() {
	var s Summary
	var latAcc, latCyc uint64
	for _, inj := range r.Injections {
		s.Total++
		switch inj.Outcome {
		case OutcomeDetectedLive:
			s.DetectedLive++
		case OutcomeDetectedSweep:
			s.DetectedSweep++
		case OutcomeMissed:
			s.Missed++
		}
		if inj.Outcome == OutcomeDetectedLive || inj.Outcome == OutcomeDetectedSweep {
			latAcc += uint64(inj.LatencyAccesses)
			latCyc += inj.LatencyCycles
		}
		if inj.ResidentAccesses > s.MaxResidentWindow {
			s.MaxResidentWindow = inj.ResidentAccesses
		}
	}
	detected := s.DetectedLive + s.DetectedSweep
	if s.Total > 0 {
		s.DetectionRate = float64(detected) / float64(s.Total)
	}
	if detected > 0 {
		s.MeanLatencyAccesses = float64(latAcc) / float64(detected)
		s.MeanLatencyCycles = float64(latCyc) / float64(detected)
	}
	r.Summary = s
}

// WriteCSV writes one header line plus one line per injection.
func (r *Report) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w,
		"id,scheme,policy,kind,target,chunk,addr,outcome,accesses,latency_accesses,latency_cycles,resident_accesses,observed,healed"); err != nil {
		return err
	}
	for _, inj := range r.Injections {
		if _, err := fmt.Fprintf(w, "%d,%s,%s,%s,%s,%d,%d,%s,%d,%d,%d,%d,%t,%t\n",
			inj.ID, r.Scheme, r.Policy, inj.Kind, inj.Target,
			inj.Chunk, inj.Addr, inj.Outcome, inj.Accesses,
			inj.LatencyAccesses, inj.LatencyCycles, inj.ResidentAccesses,
			inj.Observed, inj.Healed); err != nil {
			return err
		}
	}
	return nil
}

// MarshalJSON emits the summary with alphabetically sorted keys and fixed
// %.6f float formatting, so reports are byte-stable across Go versions
// (encoding/json's shortest-float rendering is not part of its
// compatibility promise) and diff cleanly between campaigns.
func (s Summary) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"detected_live":%d,"detected_sweep":%d,"detection_rate":%.6f,`+
		`"max_resident_window":%d,"mean_latency_accesses":%.6f,"mean_latency_cycles":%.6f,`+
		`"missed":%d,"total":%d}`,
		s.DetectedLive, s.DetectedSweep, s.DetectionRate,
		s.MaxResidentWindow, s.MeanLatencyAccesses, s.MeanLatencyCycles,
		s.Missed, s.Total)
	return b.Bytes(), nil
}

// UnmarshalJSON is the inverse of the custom marshaler; it restores the
// round-trip property encoding/json gave the plain struct.
func (s *Summary) UnmarshalJSON(data []byte) error {
	type plain Summary // drop the methods to avoid recursion
	var p plain
	if err := json.Unmarshal(data, &p); err != nil {
		return err
	}
	*s = Summary(p)
	return nil
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
