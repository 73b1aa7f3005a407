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

	"memverify/internal/core"
	"memverify/internal/runflags"
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
	alg := flag.String("alg", cfg.HashAlg, "hash algorithm: sha256, md5, sha1, fnv128")
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

	if rec != nil {
		if err := rf.WriteTrace(rec.Trace); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if reg := rf.NewRegistry(); reg != nil {
		m.FillRegistry(reg, &mt)
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
