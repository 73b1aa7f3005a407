package telemetry

import (
	"fmt"
	"os"
)

// WriteTraceFile exports the trace as Chrome trace-event JSON at path —
// the -trace flag of the commands. An empty trace still produces a file
// (with metadata only) so downstream tooling never has to special-case.
func WriteTraceFile(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := t.WriteChromeTrace(f)
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("writing trace %s: %w", path, werr)
	}
	if cerr != nil {
		return fmt.Errorf("writing trace %s: %w", path, cerr)
	}
	return nil
}

// WriteMetricsFile writes the registry snapshot as deterministic JSON at
// path — the -metrics flag of the commands.
func WriteMetricsFile(path string, reg *Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := reg.WriteJSON(f)
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("writing metrics %s: %w", path, werr)
	}
	if cerr != nil {
		return fmt.Errorf("writing metrics %s: %w", path, cerr)
	}
	return nil
}
