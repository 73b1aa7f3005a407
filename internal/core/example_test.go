package core_test

import (
	"fmt"

	"memverify/internal/core"
	"memverify/internal/trace"
)

// Example runs one simulation on the paper's machine and prints whether
// verification raised anything.
func Example() {
	cfg := core.DefaultConfig() // Table 1
	cfg.Scheme = core.SchemeCached
	cfg.Benchmark, _ = trace.ByName("gzip")
	cfg.Instructions = 50_000
	cfg.Warmup = 10_000

	m, err := core.Run(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("violations:", m.Violations)
	fmt.Println("hash traffic exists:", m.BusHashBytes > 0)
	// Output:
	// violations: 0
	// hash traffic exists: true
}

// Example_functional drives a functional machine end to end: store, flush
// (the §5.8 barrier), tamper, detect.
func Example_functional() {
	cfg := core.DefaultConfig()
	cfg.Scheme = core.SchemeCached
	cfg.Benchmark = trace.Uniform("demo", 64<<10)
	cfg.Benchmark.CodeSet = 16 << 10
	cfg.ProtectedBytes = 1 << 20
	cfg.Functional = true
	cfg.HashAlg = "sha1"

	m, err := core.NewMachine(cfg)
	if err != nil {
		panic(err)
	}
	if err := m.StoreBytes(0, []byte("secret state")); err != nil {
		panic(err)
	}
	m.EvictProtected()
	m.Adversary().Corrupt(m.ProgAddr(2), 0x80)

	buf := make([]byte, 12)
	if err := m.LoadBytes(0, buf); err != nil {
		fmt.Println("tamper detected")
	}
	// Output:
	// tamper detected
}
