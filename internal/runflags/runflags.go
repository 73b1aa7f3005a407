// Package runflags bundles the observability flags the batch drivers
// share — -trace, -metrics, -cpuprofile and -memprofile — together with
// the recorder/registry construction and file write-out they imply, so
// cmd/simulate, cmd/figures and cmd/chaos plumb one helper instead of
// three copies of the same boilerplate. The live ops surface is
// memverifyd's alone.
package runflags

import (
	"flag"

	"memverify/internal/profiling"
	"memverify/internal/telemetry"
)

// Flags holds the registered observability flag values. Construct with
// Add before flag.Parse; read only after it.
type Flags struct {
	trace   *string
	metrics *string
	prof    *profiling.Flags
}

// Add registers -trace and -metrics on the default flag set, plus
// -cpuprofile / -memprofile via internal/profiling. Call before
// flag.Parse.
func Add() *Flags {
	return &Flags{
		trace:   flag.String("trace", "", "write a Chrome trace-event JSON of the run (open in Perfetto)"),
		metrics: flag.String("metrics", "", "write a deterministic JSON metrics snapshot of the run"),
		prof:    profiling.AddFlags(),
	}
}

// StartProfiling begins CPU profiling when -cpuprofile was given and
// returns the stop function finalizing both profiles; defer it in main.
func (f *Flags) StartProfiling() (stop func(), err error) { return f.prof.Start() }

// NewRecorder returns a telemetry recorder with the default event
// capacity when either telemetry output is requested, else nil (the
// disabled fast path — attach the nil recorder freely).
func (f *Flags) NewRecorder() *telemetry.Recorder {
	if *f.trace == "" && *f.metrics == "" {
		return nil
	}
	return telemetry.NewRecorder(telemetry.DefaultEventCap)
}

// NewRegistry returns a metrics registry when -metrics was given, else
// nil.
func (f *Flags) NewRegistry() *telemetry.Registry {
	if *f.metrics == "" {
		return nil
	}
	return telemetry.NewRegistry()
}

// WriteTrace writes the given traces to the -trace path (merging
// multiple traces into one Chrome export, one process per trace). No-op
// when -trace was not given.
func (f *Flags) WriteTrace(traces ...*telemetry.Trace) error {
	if *f.trace == "" {
		return nil
	}
	return telemetry.WriteTraceFiles(*f.trace, traces...)
}

// WriteMetrics writes reg to the -metrics path. No-op when -metrics was
// not given.
func (f *Flags) WriteMetrics(reg *telemetry.Registry) error {
	if *f.metrics == "" {
		return nil
	}
	return telemetry.WriteMetricsFile(*f.metrics, reg)
}
