package shard

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"memverify/internal/core"
	"memverify/internal/integrity"
	"memverify/internal/telemetry"
	"memverify/internal/trace"
)

// storeCfg returns a quick functional template whose 2 MiB region splits
// evenly across up to 8 shards while still fitting the benchmark
// footprint in one shard.
func storeCfg(scheme core.Scheme) core.Config {
	cfg := core.DefaultConfig()
	cfg.Scheme = scheme
	cfg.Benchmark = trace.Uniform("shardtest", 32<<10)
	cfg.Benchmark.CodeSet = 4 << 10
	cfg.ProtectedBytes = 2 << 20
	cfg.L2Size = 32 << 10
	cfg.Functional = true
	if scheme == core.SchemeMulti || scheme == core.SchemeIncr {
		cfg.ChunkBlocks = 2
	}
	return cfg
}

func TestNewRejectsBadConfigs(t *testing.T) {
	good := storeCfg(core.SchemeCached)
	if _, err := New(Config{Machine: good, Shards: 0}); err == nil {
		t.Error("zero shards accepted")
	}
	nf := good
	nf.Functional = false
	if _, err := New(Config{Machine: nf, Shards: 2}); err == nil {
		t.Error("non-functional template accepted")
	}
	tiny := good
	tiny.ProtectedBytes = 4
	if _, err := New(Config{Machine: tiny, Shards: 8}); err == nil {
		t.Error("empty per-shard region accepted")
	}
}

func TestShardRouting(t *testing.T) {
	s, err := New(Config{Machine: storeCfg(core.SchemeCached), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Shards() != 4 {
		t.Fatalf("Shards() = %d", s.Shards())
	}
	if s.Span() != 4*s.ShardSpan() {
		t.Fatalf("span %d != 4 * shard span %d", s.Span(), s.ShardSpan())
	}
	var prevHi uint64
	for i := 0; i < 4; i++ {
		lo, hi := s.ShardRange(i)
		if lo != prevHi || hi != lo+s.ShardSpan() {
			t.Errorf("shard %d range [%d,%d) not contiguous after %d", i, lo, hi, prevHi)
		}
		if s.ShardFor(lo) != i || s.ShardFor(hi-1) != i {
			t.Errorf("shard %d range endpoints route to %d / %d", i, s.ShardFor(lo), s.ShardFor(hi-1))
		}
		prevHi = hi
	}
	if s.ShardFor(s.Span()) != 0 {
		t.Error("offsets past the span should wrap to shard 0")
	}
}

// TestRoundTripAcrossBoundaries drives writes that stay inside one shard,
// straddle a shard boundary, and wrap past the end of the span, then
// reads the whole region back and compares against a flat mirror.
func TestRoundTripAcrossBoundaries(t *testing.T) {
	s, err := New(Config{Machine: storeCfg(core.SchemeCached), Shards: 4, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	span := s.Span()
	mirror := make([]byte, span)
	rng := rand.New(rand.NewSource(42))

	offs := []uint64{0, s.ShardSpan() - 5, 2*s.ShardSpan() - 1, span - 3}
	for i := 0; i < 64; i++ {
		offs = append(offs, rng.Uint64()%span)
	}
	for _, off := range offs {
		p := make([]byte, 1+rng.Intn(200))
		rng.Read(p)
		if err := s.StoreBytes(off, p); err != nil {
			t.Fatalf("store at %d: %v", off, err)
		}
		for i, b := range p {
			mirror[(off+uint64(i))%span] = b
		}
	}

	got := make([]byte, span)
	b := s.NewBatch()
	const chunk = 32 << 10
	for off := uint64(0); off < span; off += chunk {
		end := off + chunk
		if end > span {
			end = span
		}
		b.Load(off, got[off:end])
	}
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mirror) {
		for i := range got {
			if got[i] != mirror[i] {
				t.Fatalf("contents diverge at offset %d (shard %d): got %#x want %#x",
					i, s.ShardFor(uint64(i)), got[i], mirror[i])
			}
		}
	}
}

// TestBatchOrderingPerAddress pins the pipelining contract: operations on
// one address land on one shard's FIFO queue, so a batch of writes to the
// same offset completes in submission order.
func TestBatchOrderingPerAddress(t *testing.T) {
	s, err := New(Config{Machine: storeCfg(core.SchemeCached), Shards: 2, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b := s.NewBatch()
	for v := byte(1); v <= 50; v++ {
		b.Store(100, []byte{v})
	}
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	var got [1]byte
	if err := s.LoadBytes(100, got[:]); err != nil {
		t.Fatal(err)
	}
	if got[0] != 50 {
		t.Errorf("last write wins expected 50, got %d", got[0])
	}
}

func TestVerifyAllAndMetrics(t *testing.T) {
	s, err := New(Config{Machine: storeCfg(core.SchemeCached), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := bytes.Repeat([]byte{0x5a}, 4096)
	for i := 0; i < 4; i++ {
		lo, _ := s.ShardRange(i)
		if err := s.StoreBytes(lo, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.VerifyAll(); err != nil {
		t.Fatalf("clean store failed verification: %v", err)
	}
	agg := s.Metrics()
	if agg.Shards != 4 || len(agg.PerShard) != 4 {
		t.Fatalf("aggregate shard count %d / %d", agg.Shards, len(agg.PerShard))
	}
	if agg.Total.IntegrityStats.Checks == 0 {
		t.Error("no verifications counted after VerifyAll")
	}
	var sum uint64
	for _, mt := range agg.PerShard {
		sum += mt.IntegrityStats.Checks
	}
	if agg.Total.IntegrityStats.Checks != sum {
		t.Errorf("total checks %d != per-shard sum %d", agg.Total.IntegrityStats.Checks, sum)
	}
	if agg.Total.Violations != 0 {
		t.Errorf("clean store reports %d violations", agg.Total.Violations)
	}
	if agg.OpsSubmitted != 4 || agg.BytesSubmitted != 4*4096 {
		t.Errorf("submitted %d ops / %d bytes, want 4 / %d", agg.OpsSubmitted, agg.BytesSubmitted, 4*4096)
	}
}

// TestTamperIsolation attaches an adversary to one shard's memory under
// the halt policy: that shard must detect and halt, its neighbors must
// keep verifying clean, and the fan-in must attribute every violation to
// the tampered shard.
func TestTamperIsolation(t *testing.T) {
	cfg := storeCfg(core.SchemeCached)
	cfg.ViolationPolicy = "halt"
	s, err := New(Config{Machine: cfg, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := bytes.Repeat([]byte{0x77}, 1024)
	for i := 0; i < 4; i++ {
		lo, _ := s.ShardRange(i)
		if err := s.StoreBytes(lo, p); err != nil {
			t.Fatal(err)
		}
	}

	const victim = 2
	s.WithShard(victim, func(m *core.Machine) {
		m.EvictProtected()
		m.Adversary().Corrupt(m.ProgAddr(0), 0xFF)
	})

	lo, _ := s.ShardRange(victim)
	buf := make([]byte, 1024)
	err = s.LoadBytes(lo, buf)
	if err == nil {
		t.Fatal("tampered shard read did not fail")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("shard %d", victim)) {
		t.Errorf("error not attributed to shard %d: %v", victim, err)
	}
	if err := s.LoadBytes(lo, buf); !errors.Is(err, core.ErrHalted) {
		t.Errorf("second read on halted shard: %v, want ErrHalted", err)
	}

	for i := 0; i < 4; i++ {
		if i == victim {
			continue
		}
		nlo, _ := s.ShardRange(i)
		if err := s.LoadBytes(nlo, buf); err != nil {
			t.Errorf("neighbor shard %d false positive: %v", i, err)
		}
		if s.Halted(i) {
			t.Errorf("neighbor shard %d halted", i)
		}
	}
	if !s.Halted(victim) {
		t.Error("tampered shard not halted")
	}
	vs := s.Violations()
	if len(vs) == 0 {
		t.Fatal("no violations recorded")
	}
	for _, v := range vs {
		if v.Shard != victim {
			t.Errorf("violation attributed to shard %d, want %d", v.Shard, victim)
		}
		if v.Err == nil {
			t.Error("violation without cause")
		}
	}
	if err := s.VerifyAll(); err == nil {
		t.Error("VerifyAll succeeded with a halted shard")
	} else if !errors.Is(err, core.ErrHalted) {
		t.Errorf("VerifyAll error lost ErrHalted: %v", err)
	}
}

// TestCloseDrainsAndKeepsMetrics: Close waits for queued work, metrics
// remain readable, further submits fail with ErrClosed.
func TestCloseDrainsAndKeepsMetrics(t *testing.T) {
	s, err := New(Config{Machine: storeCfg(core.SchemeCached), Shards: 2, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := s.NewBatch()
	for i := 0; i < 32; i++ {
		b.Store(uint64(i)*64, bytes.Repeat([]byte{byte(i)}, 64))
	}
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	agg := s.Metrics()
	if agg.BytesSubmitted != 32*64 {
		t.Errorf("post-close metrics lost bytes: %d", agg.BytesSubmitted)
	}
	if err := s.VerifyAll(); err != nil {
		t.Errorf("post-close VerifyAll: %v", err)
	}
	if err := s.StoreBytes(0, []byte{1}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit on closed store: %v, want ErrClosed", err)
	}
}

// TestFillRegistryAggregates: counters accumulate across shards and the
// gauges describe the merged store.
func TestFillRegistryAggregates(t *testing.T) {
	s, err := New(Config{Machine: storeCfg(core.SchemeCached), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.StoreBytes(0, bytes.Repeat([]byte{9}, 8192)); err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	agg := s.FillRegistry(reg)
	var out bytes.Buffer
	if err := reg.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	j := out.String()
	if !strings.Contains(j, `"shard.count"`) {
		t.Error("registry missing shard.count")
	}
	if agg.Total.IntegrityStats.Checks == 0 {
		t.Error("aggregate lost integrity checks")
	}
}

// TestBatchReportsOwnStoreViolation: under the record policy a
// partial-block store over a tampered block fetches and checks that
// block, and the violation it finds surfaces from the storing batch's
// Wait, once. A load over a tampered block reports its violation once
// too, though the machine's LoadBytes also returns it.
func TestBatchReportsOwnStoreViolation(t *testing.T) {
	s, err := New(Config{Machine: storeCfg(core.SchemeCached), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.StoreBytes(0, bytes.Repeat([]byte{0x33}, 256)); err != nil {
		t.Fatal(err)
	}
	s.WithShard(0, func(m *core.Machine) {
		m.EvictProtected()
		m.Adversary().Corrupt(m.ProgAddr(0), 0xFF)
		m.Adversary().Corrupt(m.ProgAddr(128), 0xFF)
	})

	for _, tc := range []struct {
		name string
		op   func(b *Batch)
	}{
		{"store", func(b *Batch) { b.Store(8, []byte{1, 2, 3}) }},
		{"load", func(b *Batch) { b.Load(128, make([]byte, 16)) }},
	} {
		before := len(s.Violations())
		b := s.NewBatch()
		tc.op(b)
		err := b.Wait()
		found := len(s.Violations()) - before
		if found == 0 {
			t.Fatalf("%s: the tampered block was not detected", tc.name)
		}
		var ve *integrity.ViolationError
		if !errors.As(err, &ve) || !strings.Contains(err.Error(), "shard 0") {
			t.Fatalf("%s: Wait = %v, want the shard-0 violation", tc.name, err)
		}
		if got := len(err.(interface{ Unwrap() []error }).Unwrap()); got != found {
			t.Errorf("%s: Wait joined %d errors for %d violations: %v", tc.name, got, found, err)
		}
	}

	// A clean batch on the healthy shard reports nothing.
	if err := s.StoreBytes(s.ShardSpan()+8, []byte{4, 5, 6}); err != nil {
		t.Errorf("clean neighbour store: %v", err)
	}
}

// TestNewRefusesAblations: a store runs the serving configuration, so
// both constructors refuse the dedicated verification cache and the i
// scheme, whose MAC key is public, with a SettingError naming the field
// and giving its reason, and a hash mode other than full (which
// core.Config.Validate rejects) with an error naming the mode.
func TestNewRefusesAblations(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*core.Config)
	}{
		{"VerifyCacheLines", func(c *core.Config) { c.VerifyCacheLines = 64 }},
		{"Scheme", func(c *core.Config) { c.Scheme = core.SchemeIncr; c.ChunkBlocks = 2 }},
		{"HashMode", func(c *core.Config) { c.HashMode = "timing" }},
	} {
		cfg := storeCfg(core.SchemeCached)
		tc.set(&cfg)
		scfg := Config{Machine: cfg, Shards: 2}
		_, errNew := New(scfg)
		// No images: core validates the template before it looks for one.
		_, errState := NewFromState(scfg, make([][]byte, 2), make([][]byte, 2))
		for name, err := range map[string]error{"New": errNew, "NewFromState": errState} {
			var se *SettingError
			switch {
			case err == nil:
				t.Errorf("%s with %s accepted", name, tc.field)
			case tc.field == "HashMode" && !strings.Contains(err.Error(), `"timing"`):
				t.Errorf("%s with %s: %v, want an error naming the mode", name, tc.field, err)
			case tc.field != "HashMode" && (!errors.As(err, &se) || se.Field != tc.field):
				t.Errorf("%s with %s: %v, want a SettingError naming %s", name, tc.field, err, tc.field)
			case tc.field == "Scheme" && (!strings.Contains(err.Error(), "public") || strings.Contains(err.Error(), "ablation")):
				t.Errorf("%s with scheme i: %v, want the public key as the reason", name, err)
			}
		}
	}
	full := storeCfg(core.SchemeCached)
	full.HashMode = "full"
	s, err := New(Config{Machine: full, Shards: 2})
	if err != nil {
		t.Fatalf("hash mode full refused: %v", err)
	}
	s.Close()
}

// TestPanicFaultsOneShard: a panic on a shard's worker — here the
// OnViolation hook's, on a tampered read under the record policy — is
// recovered there. The operation that raised it and every later one on
// that shard fail with the shard's *InternalError, which carries the panic
// value and stack and reads as core.ErrHalted; nothing runs on the
// faulted machine again, not even a WithShard call; the other shards keep
// serving; and the store still closes and reports metrics.
func TestPanicFaultsOneShard(t *testing.T) {
	const victim = 1
	s, err := New(Config{Machine: storeCfg(core.SchemeCached), Shards: 3,
		OnViolation: func(int, *integrity.ViolationError, bool) { panic("observer bug") }})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := bytes.Repeat([]byte{0x5a}, 256)
	for i := 0; i < 3; i++ {
		lo, _ := s.ShardRange(i)
		if err := s.StoreBytes(lo, p); err != nil {
			t.Fatal(err)
		}
	}
	s.WithShard(victim, func(m *core.Machine) {
		m.EvictProtected()
		m.Adversary().Corrupt(m.ProgAddr(0), 0xFF)
	})
	lo, _ := s.ShardRange(victim)
	buf := make([]byte, len(p))
	err = s.LoadBytes(lo, buf)
	var ie *InternalError
	if !errors.As(err, &ie) || ie.Shard != victim || ie.Value != "observer bug" ||
		!bytes.Contains(ie.Stack, []byte("TestPanicFaultsOneShard")) || !errors.Is(err, core.ErrHalted) {
		t.Fatalf("read that panicked: %v, want shard %d's InternalError with the panic and its stack", err, victim)
	}
	if !s.Halted(victim) {
		t.Fatal("the faulted shard is not halted")
	}
	if err := s.StoreBytes(lo, p); !errors.As(err, &ie) {
		t.Fatalf("store on the faulted shard: %v, want its InternalError", err)
	}
	ran := false
	if err := s.WithShard(victim, func(*core.Machine) { ran = true }); ran || !errors.As(err, &ie) {
		t.Fatalf("WithShard on the faulted shard ran %v, returned %v", ran, err)
	}
	for i := 0; i < 3; i++ {
		if i == victim {
			continue
		}
		nlo, _ := s.ShardRange(i)
		if err := s.LoadBytes(nlo, buf); err != nil || !bytes.Equal(buf, p) || s.Halted(i) {
			t.Fatalf("neighbour shard %d: %v, halted %v", i, err, s.Halted(i))
		}
	}
	if n, halted, _ := s.Health(); n != 3 || halted != 1 {
		t.Fatalf("Health: %d shards, %d halted; want 3, 1", n, halted)
	}
	s.Close()
	if agg := s.Metrics(); agg.Shards != 3 {
		t.Fatalf("metrics after close: %+v", agg)
	}
}
