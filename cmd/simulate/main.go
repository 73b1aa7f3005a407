// Command simulate runs one memory-integrity simulation and prints its
// metrics.
//
// Usage:
//
//	simulate -scheme c -bench mcf -n 1000000 -l2 1048576 -block 64
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sync/atomic"

	"memverify/internal/core"
	"memverify/internal/integrity"
	"memverify/internal/obs"
	"memverify/internal/runflags"
	"memverify/internal/telemetry"
	"memverify/internal/trace"
)

func main() {
	cfg := core.DefaultConfig()
	rf := runflags.Add()
	scheme := flag.String("scheme", "c", "verification scheme: base, naive, c, m, i")
	bench := flag.String("bench", "gcc", "benchmark: gcc gzip mcf twolf vortex vpr applu art swim")
	n := flag.Uint64("n", 1_000_000, "instructions to simulate")
	l2 := flag.Int("l2", cfg.L2Size, "L2 size in bytes")
	block := flag.Int("block", cfg.L2Block, "L2 block size in bytes")
	chunkBlocks := flag.Int("chunk-blocks", 0, "L2 blocks per hash chunk (default 1, or 2 for m/i)")
	throughput := flag.Float64("hash-gbps", cfg.HashBytesPerCycle, "hash unit throughput in GB/s")
	buffers := flag.Int("hash-buffers", cfg.HashBuffers, "hash read/write buffer entries")
	protected := flag.Uint64("protected", cfg.ProtectedBytes, "protected memory bytes")
	functional := flag.Bool("functional", false, "move and verify real bytes (small protected regions only)")
	alg := flag.String("alg", cfg.HashAlg, "hash algorithm: md5, sha1, fnv128")
	seed := flag.Uint64("seed", 1, "workload seed")
	table1 := flag.Bool("table1", false, "print Table 1 (architectural parameters) and exit")
	record := flag.String("record", "", "record the workload's first -n instructions to a trace file and exit")
	replay := flag.String("replay", "", "drive the simulation from a recorded trace file instead of the synthetic generator")
	vcLines := flag.Int("verify-cache", 0, "dedicated verification cache size in L2-block lines (0 = share the L2)")
	vcAssoc := flag.Int("verify-assoc", 0, "dedicated verification cache associativity (0 = the L2's)")
	flag.Parse()

	stopProf, perr := rf.StartProfiling()
	if perr != nil {
		fmt.Fprintln(os.Stderr, perr)
		os.Exit(1)
	}
	defer stopProf()

	cfg.Scheme = core.Scheme(*scheme)
	cfg.Instructions = *n
	cfg.L2Size = *l2
	cfg.L2Block = *block
	cfg.HashBytesPerCycle = *throughput
	cfg.HashBuffers = *buffers
	cfg.ProtectedBytes = *protected
	cfg.Functional = *functional
	cfg.HashAlg = *alg
	cfg.Seed = *seed
	switch {
	case *chunkBlocks > 0:
		cfg.ChunkBlocks = *chunkBlocks
	case cfg.Scheme == core.SchemeMulti || cfg.Scheme == core.SchemeIncr:
		cfg.ChunkBlocks = 2
	default:
		cfg.ChunkBlocks = 1
	}
	cfg.VerifyCacheLines = *vcLines
	cfg.VerifyCacheAssoc = *vcAssoc

	if *table1 {
		fmt.Print(cfg.Table1())
		return
	}

	p, ok := trace.ByName(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", *bench)
		os.Exit(2)
	}
	cfg.Benchmark = p

	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		gen := trace.NewSynthetic(cfg.Benchmark, cfg.Seed)
		if err := trace.Record(f, gen, cfg.Instructions); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("recorded %d instructions of %s to %s\n", cfg.Instructions, cfg.Benchmark.Name, *record)
		return
	}

	rec := rf.NewRecorder()
	cfg.Telemetry = rec

	m, merr := core.NewMachine(cfg)
	if merr != nil {
		fmt.Fprintln(os.Stderr, merr)
		os.Exit(1)
	}

	// The machine runs on this goroutine, so there is no registry that can
	// be filled live without racing the simulation: the ops server exposes
	// health (from an atomic violation counter), pprof and the flight
	// recorder while the run is in progress, and the authoritative
	// end-of-run registry via Publish once it finishes. /trace is likewise
	// only capturable after the run.
	fr := rf.NewFlightRecorder()
	defer rf.DumpFlight(fr)
	var violations atomic.Uint64
	var runDone atomic.Bool
	var capture func(cycles uint64) ([]*telemetry.Trace, error)
	if rec != nil {
		capture = func(cycles uint64) ([]*telemetry.Trace, error) {
			if !runDone.Load() {
				return nil, fmt.Errorf("trace capture is only available once the run finishes (the machine owns this process's only goroutine)")
			}
			return []*telemetry.Trace{rec.Trace.Tail(cycles)}, nil
		}
	}
	srv, serr := rf.StartOps(obs.Options{
		Health: func() obs.Health {
			return obs.Health{
				Shards:            1,
				PendingViolations: int(violations.Load()),
				Detail:            fmt.Sprintf("simulate %s/%s", *scheme, *bench),
			}
		},
		Flight:       fr,
		CaptureTrace: capture,
	})
	if serr != nil {
		fmt.Fprintln(os.Stderr, serr)
		os.Exit(1)
	}
	defer srv.Close()
	if fr != nil || srv != nil {
		m.ObserveViolations(func(v *integrity.ViolationError) {
			violations.Add(1)
			fr.Record(obs.EvViolation, 0, 0, v.Error())
		})
		fr.Record(obs.EvRunStart, -1, 0,
			fmt.Sprintf("simulate scheme=%s bench=%s n=%d", *scheme, *bench, *n))
	}

	var mt core.Metrics
	if *replay != "" {
		data, rerr := os.ReadFile(*replay)
		if rerr != nil {
			fmt.Fprintln(os.Stderr, rerr)
			os.Exit(1)
		}
		recorded, rerr := trace.ReadAll(bytes.NewReader(data))
		if rerr != nil {
			fmt.Fprintln(os.Stderr, rerr)
			os.Exit(1)
		}
		mt = m.RunWith(trace.NewReplay(*replay, recorded))
	} else {
		mt = m.Run()
	}

	runDone.Store(true)
	fr.Record(obs.EvRunEnd, -1, 0,
		fmt.Sprintf("violations=%d cycles=%d", mt.Violations, mt.Result.Cycles))

	if rec != nil {
		if err := rf.WriteTrace(rec.Trace); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if reg := rf.NewRegistry(); reg != nil || srv != nil {
		if reg == nil {
			reg = telemetry.NewRegistry()
		}
		m.FillRegistry(reg, &mt)
		srv.Publish(reg)
		if err := rf.WriteMetrics(reg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	fmt.Println(mt)
	fmt.Printf("  instructions        %d\n", mt.Result.Instructions)
	fmt.Printf("  cycles              %d\n", mt.Result.Cycles)
	fmt.Printf("  IPC                 %.4f\n", mt.IPC)
	fmt.Printf("  L2 data miss rate   %.4f%%\n", 100*mt.DataMissRate)
	fmt.Printf("  L2 hash accesses    %d (miss rate %.4f%%)\n", mt.L2HashAccesses, 100*mt.L2HashMissRate)
	fmt.Printf("  extra blocks/miss   %.3f\n", mt.ExtraPerMiss)
	fmt.Printf("  bus bytes           %d (data %d, hash %d)\n", mt.BusBytes, mt.BusDataBytes, mt.BusHashBytes)
	fmt.Printf("  bus utilization     %.2f%%\n", 100*mt.BusUtilization)
	fmt.Printf("  hash ops            %d (%d bytes)\n", mt.HashOps, mt.HashBytesHashed)
	fmt.Printf("  violations          %d\n", mt.Violations)
	if mt.VCAccesses > 0 {
		fmt.Printf("  verify cache        %d accesses (hit rate %.4f%%)\n", mt.VCAccesses, 100*mt.VCHitRate)
	}
}
