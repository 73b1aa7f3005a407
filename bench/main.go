// Command bench is the repository's benchmark: four workloads over the two
// clocks of the system — the simulated cycles of the paper's machines and
// the wall clock a memverifyd client sees — each run checking its own
// outputs. BENCHMARK.json at the repository root registers it; README.md
// here says what every number means and why the run has the shape it has.
//
//	bench -workload svc-miss -seed 1 -seconds 16 -trace 0
//
// prints every end-to-end metric as "name value unit" and, last, one JSON
// object with the verdict; -trace 1 prints the per-layer metrics instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	outDir    string // temporary state and trace files
	tiny      bool   // the smoke test's op counts: every code path, no meaningful timing
	jsonPath  string
	repeat    int
	selfcheck bool
}

func main() {
	o := options{outDir: "bench/out"}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: svc-miss, svc-hot, svc-log or sim-paper")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 16, "time to spend inside the measured slices")
	flag.IntVar(&trace, "trace", 0, "1: the traced run, reporting the per-layer metrics")
	flag.StringVar(&o.jsonPath, "json", "", "also write the whole run (metadata, metrics, diagnostics) to this file")
	flag.IntVar(&o.repeat, "repeat", 0, "run N times on seeds seed..seed+N-1 and print each metric's spread")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run twice on one seed; counts must repeat exactly, times within their bounds")
	flag.Parse()
	o.trace = trace != 0
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, w io.Writer) error {
	wl := workloadByName(o.workload)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if !(o.seconds > 0) || o.seconds > 600 {
		return fmt.Errorf("-seconds %v: want a length in (0, 600]", o.seconds)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	switch {
	case o.selfcheck:
		return selfcheck(o, wl, w)
	case o.repeat > 0:
		return repeat(o, wl, w)
	}
	r, err := once(o, wl, o.seed)
	if err != nil {
		return err
	}
	r.write(w)
	if o.jsonPath != "" {
		b, err := json.MarshalIndent(r.document(), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.jsonPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !r.correct() {
		return fmt.Errorf("%d of %d operations failed (first: %v)", r.failed, r.attempted, r.firstErr)
	}
	return nil
}

// once is one run of one workload on one seed.
func once(o options, wl *workload, seed uint64) (*report, error) {
	start := time.Now()
	p := defaultParams()
	if o.tiny {
		p, wl = tinyParams(), wl.tiny()
	}
	var r *report
	var err error
	if o.trace {
		r, err = runTraced(wl, p, seed, o.seconds, o.outDir)
	} else {
		r, err = runUntraced(wl, p, seed, o.seconds, o.outDir)
	}
	if err != nil {
		return nil, err
	}
	r.meta["seconds"] = fmt.Sprint(o.seconds)
	r.meta["shape"] = fmt.Sprintf("workers=%d protected=%d l2=%d setups=%d count_slices=%d ckpt_every=%d recover_every=%d final_recoveries=%d",
		p.workers, p.protected, p.l2, p.setupReps, wl.countSlices, wl.ckptEvery, wl.recoverEvery, p.recoveries)
	r.meta["wall_s"] = fmt.Sprintf("%.2f", time.Since(start).Seconds())
	return r, nil
}

// selfcheck runs the workload twice on one seed: the count metrics must be
// bit-identical and every timed metric within its bound.
func selfcheck(o options, wl *workload, w io.Writer) error {
	var rs [2]*report
	for i := range rs {
		r, err := once(o, wl, o.seed)
		if err != nil {
			return err
		}
		if !r.correct() {
			r.write(w)
			return fmt.Errorf("run %d: %d of %d operations failed (first: %v)", i, r.failed, r.attempted, r.firstErr)
		}
		rs[i] = r
		runtime.GC()
	}
	bad := 0
	for _, m := range rs[0].declared() {
		a, b := rs[0].values[m.name], rs[1].values[m.name]
		verdict := "ok"
		switch {
		case isCount(m.name) && a != b:
			verdict = "COUNT DIFFERS"
			bad++
		case m.bound > 0 && math.Abs(a-b) > m.bound*math.Min(math.Abs(a), math.Abs(b)):
			verdict = fmt.Sprintf("BEYOND BOUND %.0f%%", 100*m.bound)
			bad++
		}
		fmt.Fprintf(w, "%-24s %14s %14s %-8s %s\n", m.name, formatValue(a), formatValue(b), m.unit, verdict)
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metrics disagree between two runs of the same code and seed", bad)
	}
	return nil
}

// repeat runs the workload N times, each on another seed, and prints the
// spread of every metric as the driver measures it: the distance between
// the first and third quartile as a share of the median.
func repeat(o options, wl *workload, w io.Writer) error {
	if o.repeat < 2 {
		return fmt.Errorf("-repeat %d: want at least 2", o.repeat)
	}
	vals := map[string][]float64{}
	var decl []metric
	for i := 0; i < o.repeat; i++ {
		r, err := once(o, wl, o.seed+uint64(i))
		if err != nil {
			return err
		}
		if !r.correct() {
			r.write(w)
			return fmt.Errorf("seed %d: %d of %d operations failed (first: %v)", r.seed, r.failed, r.attempted, r.firstErr)
		}
		decl = r.declared()
		for _, m := range decl {
			vals[m.name] = append(vals[m.name], r.values[m.name])
		}
		fmt.Fprintf(w, "# seed %d done in %s s\n", r.seed, r.meta["wall_s"])
		runtime.GC()
	}
	fmt.Fprintf(w, "%-28s %-7s %13s %13s %13s %8s %8s %6s\n", "metric", "unit", "q1", "median", "q3", "iqr/med", "rng/med", "bound")
	for _, m := range decl {
		q1, q2, q3 := quartiles(vals[m.name])
		lo, hi := quantile(vals[m.name], 0), quantile(vals[m.name], 1)
		fmt.Fprintf(w, "%-28s %-7s %13s %13s %13s %8.4f %8.4f %6.2f\n", m.name, m.unit,
			formatValue(q1), formatValue(q2), formatValue(q3), ratio(q3-q1, q2), ratio(hi-lo, q2), m.bound)
	}
	return nil
}
