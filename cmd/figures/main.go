// Command figures regenerates the paper's tables and figures from fresh
// simulations and prints them as aligned text tables.
//
// Usage:
//
//	figures                 # everything, all cores (several minutes)
//	figures -fig3 -n 300000 # just Figure 3 with a larger budget
//	figures -workers 1      # reference serial run (identical output)
package main

import (
	"flag"
	"fmt"
	"os"

	"memverify/internal/core"
	"memverify/internal/figures"
	"memverify/internal/obs"
	"memverify/internal/runflags"
	"memverify/internal/telemetry"
)

func main() {
	n := flag.Uint64("n", 0, "instructions per simulation point (default 200000)")
	warm := flag.Uint64("warmup", 0, "warm-up instructions per point (default 150000)")
	seed := flag.Uint64("seed", 1, "workload seed")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = all cores, 1 = serial)")
	rf := runflags.Add()
	verbose := flag.Bool("v", false, "print each run's one-line summary")
	table1 := flag.Bool("table1", false, "print Table 1")
	fig3 := flag.Bool("fig3", false, "print Figure 3 (IPC, 6 cache configs)")
	fig4 := flag.Bool("fig4", false, "print Figure 4 (miss rates)")
	fig5 := flag.Bool("fig5", false, "print Figure 5 (extra accesses, bandwidth)")
	fig6 := flag.Bool("fig6", false, "print Figure 6 (hash throughput)")
	fig7 := flag.Bool("fig7", false, "print Figure 7 (buffer size)")
	fig8 := flag.Bool("fig8", false, "print Figure 8 (m and i schemes)")
	ablations := flag.Bool("ablations", false, "print the ablation studies (verify cache, arity, hash latency, associativity, tree depth)")
	csvPath := flag.String("csv", "", "also write every run's configuration and metrics to a CSV file")
	progress := flag.Bool("progress", false, "show live sweep progress on stderr: points done, throughput, ETA")
	flag.Parse()

	stopProf, err := rf.StartProfiling()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	p := figures.DefaultParams()
	if *n > 0 {
		p.Instructions = *n
	}
	if *warm > 0 {
		p.Warmup = *warm
	}
	p.Seed = *seed
	p.Workers = *workers
	if *verbose {
		p.Progress = os.Stderr
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		fmt.Fprintln(f, figures.CSVHeader)
		p.Observer = func(cfg core.Config, mt core.Metrics) {
			figures.WriteCSVRow(f, cfg, mt)
		}
	}
	if *progress {
		p.Meter = telemetry.NewMeter(os.Stderr, "sweep")
		defer p.Meter.Finish()
	}
	// Attaching a recorder forces the sweep serial (-workers 1); the
	// figures package handles that when p.Telemetry is non-nil.
	rec := rf.NewRecorder()
	if rec != nil {
		p.Telemetry = rec
	}
	reg := rf.NewRegistry()
	if reg != nil {
		prev := p.Observer
		p.Observer = func(cfg core.Config, mt core.Metrics) {
			if prev != nil {
				prev(cfg, mt)
			}
			core.AccumulateMetrics(reg, &mt)
		}
	}

	// Sweep points run on worker goroutines, so the live scrape surface
	// reads an accumulator each finished point merges into: /metrics shows
	// the sweep-wide counters growing and rate.figures.points_done gives a
	// live points-per-second.
	var lr *obs.LockedRegistry
	fr := rf.NewFlightRecorder()
	defer rf.DumpFlight(fr)
	if rf.OpsEnabled() {
		lr = obs.NewLockedRegistry()
		prev := p.Observer
		p.Observer = func(cfg core.Config, mt core.Metrics) {
			if prev != nil {
				prev(cfg, mt)
			}
			point := telemetry.NewRegistry()
			core.AccumulateMetrics(point, &mt)
			lr.Merge(point)
			lr.Add("figures.points_done", 1)
		}
	}
	srv, serr := rf.StartOps(obs.Options{
		Fill:   lr.Fill,
		Flight: fr,
	})
	if serr != nil {
		fmt.Fprintln(os.Stderr, serr)
		os.Exit(1)
	}
	defer srv.Close()
	fr.Record(obs.EvRunStart, -1, 0, "figures sweep")

	all := !(*table1 || *fig3 || *fig4 || *fig5 || *fig6 || *fig7 || *fig8 || *ablations)

	if all || *table1 {
		fmt.Println(p.Table1())
	}
	if all || *fig3 {
		for _, cc := range figures.Fig3Configs {
			fmt.Println(p.Fig3(cc))
		}
	}
	if all || *fig4 {
		fmt.Println(p.Fig4())
	}
	if all || *fig5 {
		fmt.Println(p.Fig5())
	}
	if all || *fig6 {
		fmt.Println(p.Fig6())
	}
	if all || *fig7 {
		fmt.Println(p.Fig7())
	}
	if all || *fig8 {
		fmt.Println(p.Fig8())
	}
	if *ablations {
		fmt.Println(p.AblationVerifyCache())
		fmt.Println(p.AblationArity())
		fmt.Println(p.AblationHashLatency())
		fmt.Println(p.AblationAssoc())
		fmt.Println(p.AblationTreeDepth())
	}

	fr.Record(obs.EvRunEnd, -1, 0, "figures sweep complete")
	if srv != nil {
		final := telemetry.NewRegistry()
		lr.Fill(final)
		srv.Publish(final)
	}

	if rec != nil {
		if err := rf.WriteTrace(rec.Trace); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if reg != nil {
		rec.FillRegistry(reg)
		if err := rf.WriteMetrics(reg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
