// Quickstart: simulate one benchmark under the paper's three headline
// schemes and print the cost of memory integrity verification. It exits
// nonzero unless the cached tree (c) beats the naive tree on IPC and
// fetches less than one extra block per L2 miss.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"memverify/internal/core"
	"memverify/internal/trace"
)

func main() {
	bench, _ := trace.ByName("swim")
	fmt.Printf("Simulating %s (Table 1 machine, 1MB L2, 64B blocks)\n\n", bench.Name)

	var baseIPC float64
	ms := map[core.Scheme]core.Metrics{}
	for _, scheme := range []core.Scheme{core.SchemeBase, core.SchemeCached, core.SchemeNaive} {
		cfg := core.DefaultConfig() // the paper's architectural parameters
		cfg.Scheme = scheme
		cfg.Benchmark = bench
		cfg.Instructions = 300_000
		cfg.Warmup = 200_000

		m, err := core.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if scheme == core.SchemeBase {
			baseIPC = m.IPC
		}
		ms[scheme] = m
		fmt.Printf("%-6s IPC %.3f (%.0f%% of base)  L2 data miss %5.2f%%  extra reads/miss %.2f  bus util %4.1f%%\n",
			scheme, m.IPC, 100*m.IPC/baseIPC, 100*m.DataMissRate, m.ExtraPerMiss, 100*m.BusUtilization)
	}

	c, naive := ms[core.SchemeCached], ms[core.SchemeNaive]
	if c.IPC <= naive.IPC {
		log.Fatalf("scheme c IPC %.3f does not beat naive's %.3f", c.IPC, naive.IPC)
	}
	if c.ExtraPerMiss >= 1 {
		log.Fatalf("scheme c fetches %.2f extra blocks per miss, want < 1", c.ExtraPerMiss)
	}

	fmt.Printf("\nThe cached hash tree (scheme c) keeps %.0f%% of base IPC on %s at\n", 100*c.IPC/baseIPC, bench.Name)
	fmt.Printf("%.2f extra reads per miss; the naive tree keeps %.0f%% at %.2f. On this\n", c.ExtraPerMiss, 100*naive.IPC/baseIPC, naive.ExtraPerMiss)
	fmt.Println("bandwidth-bound benchmark c costs far more than the paper's few percent")
	fmt.Println("(see EXPERIMENTS.md, Figure 3's deviation). Run `go run ./cmd/figures`")
	fmt.Println("to regenerate every figure of the paper.")
}
