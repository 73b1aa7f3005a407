package core

import (
	"bytes"
	"strings"
	"testing"

	"memverify/internal/trace"
)

// smallCfg returns a quick functional configuration for tests.
func smallCfg(scheme Scheme) Config {
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	cfg.Benchmark = trace.Uniform("test", 256<<10)
	cfg.Benchmark.CodeSet = 16 << 10
	cfg.Instructions = 20_000
	cfg.Warmup = 5_000
	cfg.ProtectedBytes = 1 << 20
	cfg.L2Size = 64 << 10
	cfg.Functional = true
	cfg.HashAlg = "md5"
	if scheme == SchemeMulti || scheme == SchemeIncr {
		cfg.ChunkBlocks = 2
	}
	return cfg
}

func TestValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Scheme = "bogus" },
		func(c *Config) { c.Scheme = SchemeCached; c.ChunkBlocks = 2 },
		func(c *Config) { c.Scheme = SchemeMulti; c.ChunkBlocks = 1 },
		func(c *Config) { c.Scheme = SchemeIncr; c.ChunkBlocks = 1 },
		func(c *Config) { c.Scheme = SchemeNaive; c.ChunkBlocks = 2 },
		func(c *Config) { c.Instructions = 0 },
		func(c *Config) { c.ProtectedBytes = 0 },
		func(c *Config) { c.Functional = true; c.ProtectedBytes = 1 << 30 },
		func(c *Config) { c.Benchmark.WorkingSet = c.ProtectedBytes * 2 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestRunAllSchemes(t *testing.T) {
	for _, s := range []Scheme{SchemeBase, SchemeNaive, SchemeCached, SchemeMulti, SchemeIncr} {
		t.Run(string(s), func(t *testing.T) {
			mt, err := Run(smallCfg(s))
			if err != nil {
				t.Fatal(err)
			}
			if mt.Violations != 0 {
				t.Errorf("honest run raised %d violations", mt.Violations)
			}
			if mt.IPC <= 0 || mt.IPC > 4 {
				t.Errorf("implausible IPC %f", mt.IPC)
			}
			if mt.Result.Instructions != 20_000 {
				t.Errorf("instructions %d", mt.Result.Instructions)
			}
			if s != SchemeBase && mt.HashOps == 0 {
				t.Error("protected scheme did no hashing")
			}
			if s == SchemeBase && mt.BusHashBytes != 0 {
				t.Error("base scheme produced hash traffic")
			}
		})
	}
}

func TestSchemeOrdering(t *testing.T) {
	// The paper's central result at this machine's scale: base >= c >> naive.
	ipc := map[Scheme]float64{}
	for _, s := range []Scheme{SchemeBase, SchemeCached, SchemeNaive} {
		cfg := smallCfg(s)
		cfg.Functional = false
		cfg.ProtectedBytes = 64 << 20
		cfg.Instructions = 100_000
		cfg.Warmup = 50_000
		mt, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ipc[s] = mt.IPC
	}
	if !(ipc[SchemeBase] >= ipc[SchemeCached]) {
		t.Errorf("base %f < c %f", ipc[SchemeBase], ipc[SchemeCached])
	}
	if !(ipc[SchemeCached] > ipc[SchemeNaive]*1.5) {
		t.Errorf("c %f not well above naive %f", ipc[SchemeCached], ipc[SchemeNaive])
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(smallCfg(SchemeCached))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallCfg(SchemeCached))
	if err != nil {
		t.Fatal(err)
	}
	if a.IPC != b.IPC || a.BusBytes != b.BusBytes || a.L2DataMisses != b.L2DataMisses {
		t.Errorf("identical configs diverged: %+v vs %+v", a, b)
	}
}

func TestStoreLoadBytesRoundTrip(t *testing.T) {
	m, err := NewMachine(smallCfg(SchemeCached))
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("certified result: 42")
	if err := m.StoreBytes(4096, payload); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	got := make([]byte, len(payload))
	if err := m.LoadBytes(4096, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("read back %q", got)
	}
}

func TestAdversaryTamperDetectedThroughMachine(t *testing.T) {
	for _, s := range []Scheme{SchemeCached, SchemeMulti, SchemeIncr, SchemeNaive} {
		t.Run(string(s), func(t *testing.T) {
			m, err := NewMachine(smallCfg(s))
			if err != nil {
				t.Fatal(err)
			}
			payload := bytes.Repeat([]byte{0xAB}, 64)
			if err := m.StoreBytes(0, payload); err != nil {
				t.Fatal(err)
			}
			m.EvictProtected()
			m.Adversary().Corrupt(m.ProgAddr(3), 0x40)
			got := make([]byte, 64)
			if err := m.LoadBytes(0, got); err == nil {
				t.Fatal("tampering went undetected")
			}
		})
	}
}

func TestBaseDoesNotDetectTampering(t *testing.T) {
	m, err := NewMachine(smallCfg(SchemeBase))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.StoreBytes(0, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	m.EvictProtected()
	m.Adversary().Corrupt(m.ProgAddr(0), 0xFF)
	got := make([]byte, 4)
	if err := m.LoadBytes(0, got); err != nil {
		t.Fatalf("base scheme raised: %v", err)
	}
	if got[0] != 1^0xFF {
		t.Errorf("expected silently corrupted data, got %#x", got[0])
	}
}

func TestWarmupResetsCounters(t *testing.T) {
	cfg := smallCfg(SchemeCached)
	cfg.Warmup = 10_000
	cfg.Instructions = 10_000
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mt := m.Run()
	// Measured instructions must be the post-warm-up budget only.
	if mt.Result.Instructions != 10_000 {
		t.Errorf("measured %d instructions", mt.Result.Instructions)
	}
	// A warm cache means the measured miss count is well below the
	// all-inclusive count a cold run of 20k instructions would see.
	cold := smallCfg(SchemeCached)
	cold.Warmup = 0
	cold.Instructions = 20_000
	cmt, err := Run(cold)
	if err != nil {
		t.Fatal(err)
	}
	if mt.L2DataMisses >= cmt.L2DataMisses {
		t.Errorf("warmed misses %d >= cold misses %d", mt.L2DataMisses, cmt.L2DataMisses)
	}
}

func TestTable1Contents(t *testing.T) {
	cfg := DefaultConfig()
	out := cfg.Table1()
	for _, want := range []string{
		"1 GHz", "64KB, 2-way, 32B line", "Unified, 1MB, 4-way, 64B line",
		"80 cycles", "200 MHz, 8-B wide (1.6 GB/s)", "4 / 4 per cycle",
		"64", "128", "3.2 GB/s", "16", "128 bits",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsString(t *testing.T) {
	mt, err := Run(smallCfg(SchemeCached))
	if err != nil {
		t.Fatal(err)
	}
	s := mt.String()
	if !strings.Contains(s, "test/c") || !strings.Contains(s, "IPC") {
		t.Errorf("summary: %s", s)
	}
}

func TestUnprotectedBaseBeyondTree(t *testing.T) {
	m, err := NewMachine(smallCfg(SchemeCached))
	if err != nil {
		t.Fatal(err)
	}
	if m.UnprotectedBase() < m.Layout.Size() {
		t.Error("unprotected base inside the protected region")
	}
	if m.UnprotectedBase()%uint64(m.Cfg.L2Block) != 0 {
		t.Error("unprotected base not block aligned")
	}
}

func TestProgAddrMapsIntoDataRegion(t *testing.T) {
	m, err := NewMachine(smallCfg(SchemeCached))
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []uint64{0, 8, 4096, m.Cfg.Benchmark.WorkingSet - 8} {
		a := m.ProgAddr(off)
		if a < m.Layout.DataStart() || a >= m.Layout.Size() {
			t.Errorf("ProgAddr(%d) = %#x outside data region", off, a)
		}
		if !m.Layout.IsData(m.Layout.ChunkOf(a)) {
			t.Errorf("ProgAddr(%d) maps into an interior chunk", off)
		}
	}
}

func TestIPCConsistency(t *testing.T) {
	mt, err := Run(smallCfg(SchemeCached))
	if err != nil {
		t.Fatal(err)
	}
	want := float64(mt.Result.Instructions) / float64(mt.Result.Cycles)
	if mt.IPC != want {
		t.Errorf("IPC %f != instructions/cycles %f", mt.IPC, want)
	}
}

// TestCryptoBarrierThroughMachine checks §5.8 end to end: a crypto
// instruction cannot commit before the hierarchy's outstanding checks.
func TestCryptoBarrierThroughMachine(t *testing.T) {
	cfg := smallCfg(SchemeCached)
	cfg.Benchmark.CryptoEvery = 1000
	mt, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mt.Violations != 0 {
		t.Fatalf("violations: %d", mt.Violations)
	}
	// The barrier can only slow things down relative to the same workload
	// without crypto ops.
	cfg2 := smallCfg(SchemeCached)
	mt2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if mt.IPC > mt2.IPC*1.05 {
		t.Errorf("crypto-barrier run faster than plain run: %f vs %f", mt.IPC, mt2.IPC)
	}
}
