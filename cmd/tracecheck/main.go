// Command tracecheck validates telemetry artifacts produced by the other
// commands' -trace and -metrics flags. It is the CI gate behind the
// observability layer: a trace must parse as Chrome trace-event JSON with
// well-nested, timestamp-monotonic spans on every thread, and a metrics
// snapshot must match the memverify-metrics-v1 schema with internally
// consistent histograms.
//
// Usage:
//
//	tracecheck -trace run.trace.json -metrics run.metrics.json
//
// Either file flag may be given alone. Exits nonzero on the first
// violation.
package main

import (
	"flag"
	"fmt"
	"os"

	"memverify/internal/telemetry"
)

func main() {
	tracePath := flag.String("trace", "", "Chrome trace-event JSON file to validate")
	metricsPath := flag.String("metrics", "", "metrics snapshot JSON file to validate")
	minSpans := flag.Int("min-spans", 1, "minimum number of spans the trace must contain")
	flag.Parse()

	if *tracePath == "" && *metricsPath == "" {
		fmt.Fprintln(os.Stderr, "tracecheck: nothing to do; pass -trace and/or -metrics")
		os.Exit(2)
	}

	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			fatal(err)
		}
		spans, err := telemetry.ValidateChromeTrace(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *tracePath, err))
		}
		if spans < *minSpans {
			fatal(fmt.Errorf("%s: %d spans, want at least %d", *tracePath, spans, *minSpans))
		}
		fmt.Printf("trace OK: %s (%d spans)\n", *tracePath, spans)
	}
	if *metricsPath != "" {
		f, err := os.Open(*metricsPath)
		if err != nil {
			fatal(err)
		}
		err = telemetry.ValidateMetrics(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *metricsPath, err))
		}
		fmt.Printf("metrics OK: %s\n", *metricsPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracecheck:", err)
	os.Exit(1)
}
