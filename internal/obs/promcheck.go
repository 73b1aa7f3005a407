package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// SampleLine is one parsed exposition sample.
type SampleLine struct {
	Name   string // full sample name (may carry _bucket/_sum/_count)
	Labels string // raw label block without braces, "" when absent
	Value  float64
}

// Key identifies the sample within its scrape (name plus labels).
func (s SampleLine) Key() string {
	if s.Labels == "" {
		return s.Name
	}
	return s.Name + "{" + s.Labels + "}"
}

// Family is one parsed metric family: its TYPE, HELP and samples in
// exposition order.
type Family struct {
	Name    string
	Type    string // counter | gauge | histogram | summary | untyped
	Help    string
	Samples []SampleLine
}

// Scrape is one parsed and structurally validated exposition.
type Scrape struct {
	Families map[string]*Family
	Order    []string // family names in exposition order
}

// Family sample-name suffixes that fold into their base family.
var histSuffixes = []string{"_bucket", "_sum", "_count"}

func isLegalMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		alpha := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// ValidateExposition parses a Prometheus text exposition (version 0.0.4)
// and enforces the structural rules the repo's /metrics endpoint promises:
//
//   - every sample belongs to a family announced by a # TYPE line, and
//     every family has exactly one HELP and one TYPE (HELP first);
//   - metric names use only [a-zA-Z0-9_:] and don't start with a digit;
//   - a family's samples are contiguous and no (name, labels) pair
//     repeats;
//   - histogram families carry cumulative non-decreasing le buckets, a
//     mandatory le="+Inf" bucket, and _count equal to the +Inf bucket.
//
// It returns the parsed scrape for CompareScrapes.
func ValidateExposition(r io.Reader) (*Scrape, error) {
	sc := &Scrape{Families: map[string]*Family{}}
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var last *Family // family of the previous sample line, for contiguity
	closed := map[string]bool{}
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := scanner.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseMeta(sc, line, lineNo); err != nil {
				return nil, err
			}
			continue
		}
		sample, err := parseSample(line, lineNo)
		if err != nil {
			return nil, err
		}
		fam := familyFor(sc, sample.Name)
		if fam == nil {
			return nil, fmt.Errorf("line %d: sample %q has no preceding # TYPE", lineNo, sample.Name)
		}
		if last != nil && fam != last {
			if closed[fam.Name] {
				return nil, fmt.Errorf("line %d: family %q samples are not contiguous", lineNo, fam.Name)
			}
			closed[last.Name] = true
		}
		last = fam
		fam.Samples = append(fam.Samples, sample)
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	for _, name := range sc.Order {
		if err := validateFamily(sc.Families[name]); err != nil {
			return nil, err
		}
	}
	return sc, nil
}

func parseMeta(sc *Scrape, line string, lineNo int) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
		return nil // free comment, ignored per spec
	}
	name := fields[2]
	if !isLegalMetricName(name) {
		return fmt.Errorf("line %d: illegal metric name %q", lineNo, name)
	}
	fam := sc.Families[name]
	if fields[1] == "HELP" {
		if fam != nil && fam.Help != "" {
			return fmt.Errorf("line %d: duplicate HELP for %q", lineNo, name)
		}
		if fam == nil {
			fam = &Family{Name: name}
			sc.Families[name] = fam
			sc.Order = append(sc.Order, name)
		}
		if len(fields) == 4 {
			fam.Help = fields[3]
		} else {
			fam.Help = " " // present but empty
		}
		return nil
	}
	// TYPE
	if len(fields) < 4 {
		return fmt.Errorf("line %d: TYPE line for %q names no type", lineNo, name)
	}
	if fam != nil && fam.Type != "" {
		return fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
	}
	if fam != nil && len(fam.Samples) > 0 {
		return fmt.Errorf("line %d: TYPE for %q after its samples", lineNo, name)
	}
	if fam == nil {
		fam = &Family{Name: name}
		sc.Families[name] = fam
		sc.Order = append(sc.Order, name)
	}
	switch t := fields[3]; t {
	case "counter", "gauge", "histogram", "summary", "untyped":
		fam.Type = t
	default:
		return fmt.Errorf("line %d: unknown TYPE %q for %q", lineNo, fields[3], name)
	}
	return nil
}

func parseSample(line string, lineNo int) (SampleLine, error) {
	var s SampleLine
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("line %d: malformed sample %q", lineNo, line)
	} else {
		s.Name = rest[:i]
		if rest[i] == '{' {
			end := strings.LastIndex(rest, "}")
			if end < i {
				return s, fmt.Errorf("line %d: unterminated label block in %q", lineNo, line)
			}
			s.Labels = rest[i+1 : end]
			rest = strings.TrimSpace(rest[end+1:])
		} else {
			rest = strings.TrimSpace(rest[i+1:])
		}
	}
	if !isLegalMetricName(s.Name) {
		return s, fmt.Errorf("line %d: illegal metric name %q", lineNo, s.Name)
	}
	// A sample may carry a trailing timestamp; the repo never writes one,
	// so reject it to keep scrapes deterministic.
	if strings.ContainsAny(rest, " \t") {
		return s, fmt.Errorf("line %d: unexpected trailing fields in %q", lineNo, line)
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("line %d: bad sample value %q: %v", lineNo, rest, err)
	}
	s.Value = v
	return s, nil
}

// familyFor resolves a sample name to its announced family: exact match
// first, then the histogram suffixes against a histogram/summary family.
func familyFor(sc *Scrape, name string) *Family {
	if f, ok := sc.Families[name]; ok {
		return f
	}
	for _, suf := range histSuffixes {
		base, ok := strings.CutSuffix(name, suf)
		if !ok {
			continue
		}
		if f, ok := sc.Families[base]; ok && (f.Type == "histogram" || f.Type == "summary") {
			return f
		}
	}
	return nil
}

func validateFamily(f *Family) error {
	if f.Type == "" {
		return fmt.Errorf("family %q has HELP but no TYPE", f.Name)
	}
	if f.Help == "" {
		return fmt.Errorf("family %q has TYPE but no HELP", f.Name)
	}
	seen := map[string]bool{}
	for _, s := range f.Samples {
		if seen[s.Key()] {
			return fmt.Errorf("family %q: duplicate sample %q", f.Name, s.Key())
		}
		seen[s.Key()] = true
	}
	if f.Type == "histogram" {
		return validateHistogram(f)
	}
	if len(f.Samples) == 0 {
		return fmt.Errorf("family %q has no samples", f.Name)
	}
	return nil
}

func validateHistogram(f *Family) error {
	prev := math.Inf(-1)
	prevCount := -1.0
	infCount, count := -1.0, -1.0
	hasSum := false
	for _, s := range f.Samples {
		switch s.Name {
		case f.Name + "_bucket":
			le, ok := labelValue(s.Labels, "le")
			if !ok {
				return fmt.Errorf("family %q: bucket sample without le label", f.Name)
			}
			bound := math.Inf(1)
			if le != "+Inf" {
				v, err := strconv.ParseFloat(le, 64)
				if err != nil {
					return fmt.Errorf("family %q: bad le %q", f.Name, le)
				}
				bound = v
			}
			if bound <= prev {
				return fmt.Errorf("family %q: le buckets not strictly increasing at le=%q", f.Name, le)
			}
			if s.Value < prevCount {
				return fmt.Errorf("family %q: cumulative bucket counts decrease at le=%q", f.Name, le)
			}
			prev, prevCount = bound, s.Value
			if le == "+Inf" {
				infCount = s.Value
			}
		case f.Name + "_sum":
			hasSum = true
		case f.Name + "_count":
			count = s.Value
		default:
			return fmt.Errorf("family %q: unexpected sample %q", f.Name, s.Name)
		}
	}
	if infCount < 0 {
		return fmt.Errorf("family %q: missing le=\"+Inf\" bucket", f.Name)
	}
	if !hasSum || count < 0 {
		return fmt.Errorf("family %q: missing _sum or _count", f.Name)
	}
	if count != infCount {
		return fmt.Errorf("family %q: _count %v != +Inf bucket %v", f.Name, count, infCount)
	}
	return nil
}

// labelValue extracts one label's unquoted value from a raw label block.
func labelValue(labels, key string) (string, bool) {
	for _, part := range strings.Split(labels, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || k != key {
			continue
		}
		v = strings.TrimSpace(v)
		if len(v) >= 2 && v[0] == '"' && v[len(v)-1] == '"' {
			return v[1 : len(v)-1], true
		}
		return v, true
	}
	return "", false
}

// CompareScrapes enforces cross-scrape invariants between an earlier and
// a later scrape of the same process: counter samples and histogram
// _bucket/_count/_sum samples never decrease, and no counter family
// disappears. Gauges (including the sampler block) may move freely.
func CompareScrapes(prev, cur *Scrape) error {
	names := make([]string, 0, len(prev.Families))
	for name := range prev.Families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pf := prev.Families[name]
		if pf.Type != "counter" && pf.Type != "histogram" {
			continue
		}
		cf, ok := cur.Families[name]
		if !ok {
			return fmt.Errorf("counter family %q disappeared between scrapes", name)
		}
		curVals := map[string]float64{}
		for _, s := range cf.Samples {
			curVals[s.Key()] = s.Value
		}
		for _, s := range pf.Samples {
			cv, ok := curVals[s.Key()]
			if !ok {
				return fmt.Errorf("sample %q disappeared between scrapes", s.Key())
			}
			if cv < s.Value {
				return fmt.Errorf("sample %q went backwards between scrapes: %v -> %v",
					s.Key(), s.Value, cv)
			}
		}
	}
	return nil
}
