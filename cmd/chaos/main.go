// Command chaos runs seeded fault-injection campaigns against the
// functional simulator and reports detection rates and latencies per
// verification scheme. Identical seeds produce byte-identical reports, so
// a pinned invocation doubles as a CI regression gate: the command exits
// nonzero if any injection goes undetected or if a clean
// (no-adversary) run flags a violation.
//
// With -crash the campaign targets the persistence layer instead of live
// memory: seeded process kills inside the checkpoint commit protocol plus
// on-disk tampering (segment flips, forged checksums, WAL truncation,
// stale-snapshot replay, and flipped, forged, dropped, substituted and
// truncated links of a base-and-deltas chain), gated the same way — every clean kill/restart
// must reproduce the sealed root exactly, every tamper must be detected.
//
// Usage:
//
//	chaos                          # 100 injections per tree scheme
//	chaos -n 1000 -schemes c,i     # bigger campaign, two schemes
//	chaos -policy halt             # halt on the first violation
//	chaos -crash -n 50 -schemes c  # kill/restart + disk-tamper campaign
//	chaos -csv out.csv -json out.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"memverify/internal/chaos"
	"memverify/internal/core"
	"memverify/internal/runflags"
	"memverify/internal/stats"
)

// errFailed signals gate failures whose messages were already printed.
var errFailed = fmt.Errorf("campaign gates failed")

func main() {
	if err := run(); err != nil {
		if err != errFailed {
			fmt.Fprintln(os.Stderr, "chaos:", err)
		}
		os.Exit(1)
	}
}

func run() error {
	var (
		seed        = flag.Uint64("seed", 1, "campaign RNG seed")
		n           = flag.Int("n", 100, "injections per scheme")
		schemes     = flag.String("schemes", "naive,c,m,i", "comma-separated verification schemes")
		policy      = flag.String("policy", "record", "violation policy: record or halt")
		warm        = flag.Int("warm", 24, "warm accesses before each injection")
		post        = flag.Int("post", 24, "random accesses after each injection")
		csvPath     = flag.String("csv", "", "write per-injection rows to this CSV file")
		jsonPath    = flag.String("json", "", "write full reports to this JSON file")
		vcLines     = flag.Int("verify-cache", 0, "dedicated verification cache size in L2-block lines (0 = share the L2)")
		vcAssoc     = flag.Int("verify-assoc", 0, "dedicated verification cache associativity (0 = the L2's)")
		crash       = flag.Bool("crash", false, "run the kill/restart + on-disk tamper campaign against the persistence layer")
		crashShards = flag.Int("crash-shards", 1, "with -crash: shards in each leg's store (1 = single machine)")
		crashDir    = flag.String("crash-dir", "", "with -crash: root directory for per-leg stores (default: a temp dir)")
	)
	rf := runflags.Add()
	flag.Parse()

	stopProf, err := rf.StartProfiling()
	if err != nil {
		return err
	}
	defer stopProf()

	var csvOut, jsonOut *os.File
	if *csvPath != "" {
		if csvOut, err = os.Create(*csvPath); err != nil {
			return err
		}
		defer csvOut.Close()
	}
	if *jsonPath != "" {
		if jsonOut, err = os.Create(*jsonPath); err != nil {
			return err
		}
		defer jsonOut.Close()
	}

	if *crash {
		return runCrashCampaign(*seed, *n, *schemes, *policy,
			*crashShards, *crashDir, csvOut, jsonOut, rf)
	}

	rec := rf.NewRecorder()
	reg := rf.NewRegistry()

	tbl := stats.NewTable("chaos campaign (seed "+fmt.Sprint(*seed)+")",
		"scheme", "injections", "live", "sweep", "missed",
		"det rate", "lat (acc)", "lat (cyc)", "clean viol")
	tbl.SetPrecision(2)

	failed := false
	for i, name := range strings.Split(*schemes, ",") {
		scheme := core.Scheme(strings.TrimSpace(name))
		cfg := chaos.DefaultConfig(scheme)
		cfg.Seed = *seed
		cfg.Injections = *n
		cfg.Policy = *policy
		cfg.WarmAccesses = *warm
		cfg.PostAccesses = *post
		cfg.VerifyCacheLines = *vcLines
		cfg.VerifyCacheAssoc = *vcAssoc
		cfg.Telemetry = rec

		clean, err := chaos.CleanViolations(cfg)
		if err != nil {
			return fmt.Errorf("%s: clean run: %w", scheme, err)
		}
		rep, err := chaos.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", scheme, err)
		}
		s := rep.Summary
		if reg != nil {
			pfx := "chaos." + string(scheme) + "."
			reg.Add(pfx+"injections", uint64(s.Total))
			reg.Add(pfx+"detected_live", uint64(s.DetectedLive))
			reg.Add(pfx+"detected_sweep", uint64(s.DetectedSweep))
			reg.Add(pfx+"missed", uint64(s.Missed))
			reg.Add(pfx+"clean_violations", uint64(clean))
			reg.SetGauge(pfx+"detection_rate", s.DetectionRate)
		}
		tbl.AddRow(string(scheme), s.Total, s.DetectedLive, s.DetectedSweep,
			s.Missed, s.DetectionRate,
			s.MeanLatencyAccesses, s.MeanLatencyCycles, clean)
		if s.Missed > 0 {
			fmt.Fprintf(os.Stderr, "FAIL: scheme %s missed %d/%d injections\n", scheme, s.Missed, s.Total)
			failed = true
		}
		if clean != 0 {
			fmt.Fprintf(os.Stderr, "FAIL: scheme %s flagged %d violations on a clean run\n", scheme, clean)
			failed = true
		}
		if csvOut != nil {
			// One header for the whole file; rows carry the scheme column.
			if i == 0 {
				if err := rep.WriteCSV(csvOut); err != nil {
					return err
				}
			} else {
				if err := writeCSVRowsOnly(csvOut, rep.WriteCSV); err != nil {
					return err
				}
			}
		}
		if jsonOut != nil {
			if err := rep.WriteJSON(jsonOut); err != nil {
				return err
			}
		}
	}
	fmt.Print(tbl.String())
	if rec != nil {
		if err := rf.WriteTrace(rec.Trace); err != nil {
			return err
		}
	}
	if reg != nil {
		rec.FillRegistry(reg)
		if err := rf.WriteMetrics(reg); err != nil {
			return err
		}
	}
	if failed {
		return errFailed
	}
	return nil
}

// runCrashCampaign drives the kill/restart + disk-tamper campaign per
// scheme and gates hard: any false positive (clean crash classified as a
// violation), any root mismatch (clean recovery not reproducing the
// sealed root), or any missed tamper fails the run.
func runCrashCampaign(seed uint64, n int, schemes, policy string,
	shards int, dir string, csvOut, jsonOut *os.File, rf *runflags.Flags) error {

	reg := rf.NewRegistry()
	tbl := stats.NewTable("crash campaign (seed "+fmt.Sprint(seed)+")",
		"scheme", "legs", "delta legs", "kills", "tampers", "clean rec", "false pos",
		"root mism", "missed", "det rate")
	tbl.SetPrecision(2)

	failed := false
	for i, name := range strings.Split(schemes, ",") {
		scheme := core.Scheme(strings.TrimSpace(name))
		cfg := chaos.DefaultCrashConfig(scheme)
		cfg.Seed = seed
		cfg.Injections = n
		cfg.Policy = policy
		cfg.Shards = shards
		cfg.Dir = dir
		if shards > 1 {
			// Give each shard the single-machine footprint.
			cfg.ProtectedBytes *= uint64(shards)
		}

		rep, err := chaos.RunCrash(cfg)
		if err != nil {
			return fmt.Errorf("%s: crash campaign: %w", scheme, err)
		}
		s := rep.Summary
		if reg != nil {
			pfx := "crash." + string(scheme) + "."
			reg.Add(pfx+"legs", uint64(s.Total))
			reg.Add(pfx+"delta_legs", uint64(s.DeltaLegs))
			reg.Add(pfx+"kills", uint64(s.Kills))
			reg.Add(pfx+"tampers", uint64(s.Tampers))
			reg.Add(pfx+"clean_recoveries", uint64(s.CleanRecoveries))
			reg.Add(pfx+"false_positives", uint64(s.FalsePositives))
			reg.Add(pfx+"root_mismatches", uint64(s.RootMismatches))
			reg.Add(pfx+"missed", uint64(s.Missed))
			reg.SetGauge(pfx+"detection_rate", s.DetectionRate)
		}
		tbl.AddRow(string(scheme), s.Total, s.DeltaLegs, s.Kills, s.Tampers, s.CleanRecoveries,
			s.FalsePositives, s.RootMismatches, s.Missed, s.DetectionRate)
		if s.FalsePositives > 0 {
			fmt.Fprintf(os.Stderr, "FAIL: scheme %s: %d clean crashes classified as violations\n", scheme, s.FalsePositives)
			failed = true
		}
		if s.RootMismatches > 0 {
			fmt.Fprintf(os.Stderr, "FAIL: scheme %s: %d clean recoveries lost the sealed root\n", scheme, s.RootMismatches)
			failed = true
		}
		if s.Missed > 0 {
			fmt.Fprintf(os.Stderr, "FAIL: scheme %s: %d on-disk tampers undetected\n", scheme, s.Missed)
			failed = true
		}
		if csvOut != nil {
			if i == 0 {
				if err := rep.WriteCSV(csvOut); err != nil {
					return err
				}
			} else {
				if err := writeCSVRowsOnly(csvOut, rep.WriteCSV); err != nil {
					return err
				}
			}
		}
		if jsonOut != nil {
			enc := json.NewEncoder(jsonOut)
			if err := enc.Encode(rep); err != nil {
				return err
			}
		}
	}
	fmt.Print(tbl.String())
	if reg != nil {
		if err := rf.WriteMetrics(reg); err != nil {
			return err
		}
	}
	if failed {
		return errFailed
	}
	return nil
}

// writeCSVRowsOnly appends a report's rows without repeating the header.
func writeCSVRowsOnly(f *os.File, writeCSV func(w io.Writer) error) error {
	var b strings.Builder
	if err := writeCSV(&b); err != nil {
		return err
	}
	body := b.String()
	if i := strings.IndexByte(body, '\n'); i >= 0 {
		body = body[i+1:]
	}
	_, err := f.WriteString(body)
	return err
}
