package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"memverify/internal/cache"
	"memverify/internal/telemetry"
	"memverify/internal/trace"
)

// The reference span paths: LoadBytes and StoreBytes as a loop of one-byte
// L2 accesses, each through the engine's front door, with the §5.3
// whole-block allocation where an aligned store covers a block. They exist
// only here, as what the block-granular paths must be indistinguishable
// from in every count the simulator keeps.

func refL2Byte(h *hierarchy, now, addr uint64, write bool, p []byte) uint64 {
	done := now + h.Cfg.L2Latency
	miss := uint64(0)
	if write {
		ln := h.L2.Write(addr, cache.Data)
		for try := 0; ln == nil; try++ {
			miss = 1
			if try == fillRetries {
				panic("reference: write-allocate failed to cache the block")
			}
			if t := h.Engine.ReadBlock(now+h.Cfg.L2Latency, addr); t > done {
				done = t
			}
			ln = h.L2.Write(addr, cache.Data)
		}
		copy(h.L2.Bytes(ln)[addr-ln.Addr:], p)
		h.tel.Emit(telemetry.TrackL2, telemetry.KindL2Write, now, done, addr, miss)
		return done
	}
	ln := h.L2.Read(addr, cache.Data)
	for try := 0; ln == nil; try++ {
		miss = 1
		if try == fillRetries {
			panic("reference: fill failed to cache the block")
		}
		if t := h.Engine.ReadBlock(now+h.Cfg.L2Latency, addr); t > done {
			done = t
		}
		ln = h.L2.Peek(addr)
	}
	copy(p, h.L2.Bytes(ln)[addr-ln.Addr:])
	h.tel.Emit(telemetry.TrackL2, telemetry.KindL2Read, now, done, addr, miss)
	return done
}

func refStoreBytes(m *Machine, off uint64, p []byte) error {
	if err := m.beginAccess("StoreBytes"); err != nil {
		return err
	}
	h := (*hierarchy)(m)
	bs := uint64(m.Cfg.L2Block)
	for len(p) > 0 {
		a := m.ProgAddr(off)
		if a%bs == 0 && uint64(len(p)) >= bs {
			ln := m.L2.Write(a, cache.Data)
			for try := 0; ln == nil; try++ {
				if try == fillRetries {
					panic("reference: full-write allocation failed")
				}
				m.now = m.Engine.AllocateFullWrite(m.now, a)
				ln = m.L2.Peek(a)
			}
			copy(m.L2.Bytes(ln), p[:bs])
			off += bs
			p = p[bs:]
			continue
		}
		m.now = refL2Byte(h, m.now, a, true, p[:1])
		off++
		p = p[1:]
	}
	return nil
}

func refLoadBytes(m *Machine, off uint64, p []byte) error {
	if err := m.beginAccess("LoadBytes"); err != nil {
		return err
	}
	h := (*hierarchy)(m)
	before := m.Sys.Stat.Violations
	for i := range p {
		m.now = refL2Byte(h, m.now, m.ProgAddr(off+uint64(i)), false, p[i:i+1])
	}
	if m.Sys.Stat.Violations > before {
		return m.Sys.First
	}
	return nil
}

// spanCfg is a machine small enough that random spans miss, evict and
// write back constantly: 64 KiB protected behind an 8 KiB 4-way L2.
func spanCfg(scheme Scheme, traced bool) Config {
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	cfg.Functional = true
	cfg.HashAlg = "fnv128"
	cfg.ProtectedBytes = 64 << 10
	cfg.L2Size = 8 << 10
	cfg.Benchmark = trace.Uniform("span", 16<<10)
	cfg.Benchmark.CodeSet = 4 << 10
	if scheme == SchemeMulti || scheme == SchemeIncr {
		cfg.ChunkBlocks = 2
	}
	if traced {
		cfg.Telemetry = telemetry.NewRecorder(1 << 16)
	}
	return cfg
}

// lruOrder drains every set of m's L2 by filling it with blocks from far
// outside the protected region and returns the victims in eviction order:
// the complete LRU order of every set, dirty bits and classes included.
func lruOrder(m *Machine) string {
	var b bytes.Buffer
	geo := m.L2.Config()
	sets := uint64(m.L2.Sets())
	for set := uint64(0); set < sets; set++ {
		for way := uint64(0); way < uint64(geo.Ways); way++ {
			ev := m.L2.Fill(1<<40+(way*sets+set)*uint64(geo.BlockSize), cache.Data, nil)
			fmt.Fprintf(&b, "%d:%v/%#x/%v/%v ", set, ev.Valid, ev.Addr, ev.Dirty, ev.Class)
		}
	}
	return b.String()
}

// TestSpanCountIdentity is the seeded property of the block-granular span
// paths: on every scheme, traced or not, a random interleaving
// of loads and stores — 1 to 300 bytes, unaligned, block-crossing,
// whole-block, wrapping at ProgSpan — leaves the machine exactly where the
// byte-at-a-time reference leaves its twin: the bytes delivered, the cycle
// clock, every L2 and engine counter after each operation, and at the end
// the root, the trace and the replacement order of every set.
func TestSpanCountIdentity(t *testing.T) {
	for _, scheme := range []Scheme{SchemeNaive, SchemeCached, SchemeMulti, SchemeIncr} {
		for _, traced := range []bool{false, true} {
			name := fmt.Sprintf("%s/full/traced=%v", scheme, traced)
			t.Run(name, func(t *testing.T) {
				spanIdentity(t, scheme, traced, 0x5ca1ab1e)
			})
		}
	}
}

func spanIdentity(t *testing.T, scheme Scheme, traced bool, seed int64) {
	got, err := NewMachine(spanCfg(scheme, traced))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewMachine(spanCfg(scheme, traced))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	span, bs := got.ProgSpan(), uint64(got.Cfg.L2Block)
	ops := 1500
	if testing.Short() {
		ops = 300
	}
	for i := 0; i < ops; i++ {
		n := 1 + rng.Intn(300)
		off := rng.Uint64() % (2 * span) // offsets wrap modulo ProgSpan
		switch rng.Intn(4) {
		case 0: // the tail of the region, so the span wraps to offset 0
			off = span - uint64(rng.Intn(n+1))
		case 1: // block-aligned, whole blocks: the allocate path
			off, n = off&^(bs-1), int(bs)*(1+rng.Intn(4))
		}
		write := rng.Intn(2) == 0
		a, b := make([]byte, n), make([]byte, n)
		var errA, errB error
		if write {
			rng.Read(a)
			copy(b, a)
			errA, errB = got.StoreBytes(off, a), refStoreBytes(ref, off, b)
		} else {
			errA, errB = got.LoadBytes(off, a), refLoadBytes(ref, off, b)
		}
		if errA != nil || errB != nil {
			t.Fatalf("op %d: errors %v / %v on a clean run", i, errA, errB)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("op %d (write=%v off=%d n=%d): delivered bytes differ", i, write, off, n)
		}
		if got.Now() != ref.Now() {
			t.Fatalf("op %d (write=%v off=%d n=%d): clock %d, reference %d", i, write, off, n, got.Now(), ref.Now())
		}
		if got.L2.Stat != ref.L2.Stat {
			t.Fatalf("op %d (write=%v off=%d n=%d): L2 stats\n %+v\nreference\n %+v", i, write, off, n, got.L2.Stat, ref.L2.Stat)
		}
		if got.Sys.Stat != ref.Sys.Stat {
			t.Fatalf("op %d (write=%v off=%d n=%d): engine stats\n %+v\nreference\n %+v", i, write, off, n, got.Sys.Stat, ref.Sys.Stat)
		}
	}
	got.Flush()
	ref.Flush()
	if got.Now() != ref.Now() || !bytes.Equal(got.Root(), ref.Root()) {
		t.Fatalf("after Flush: clock %d root %x, reference clock %d root %x", got.Now(), got.Root(), ref.Now(), ref.Root())
	}
	if got.L2.Stat != ref.L2.Stat || got.Sys.Stat != ref.Sys.Stat {
		t.Fatalf("after Flush: stats differ")
	}
	if traced {
		var ta, tb bytes.Buffer
		if err := got.tel.WriteChromeTrace(&ta); err != nil {
			t.Fatal(err)
		}
		if err := ref.tel.WriteChromeTrace(&tb); err != nil {
			t.Fatal(err)
		}
		if got.tel.Total() != ref.tel.Total() || !bytes.Equal(ta.Bytes(), tb.Bytes()) {
			t.Fatalf("traces differ: %d events, reference %d", got.tel.Total(), ref.tel.Total())
		}
	}
	if a, b := lruOrder(got), lruOrder(ref); a != b {
		t.Fatalf("L2 replacement order differs:\n %s\nreference\n %s", a, b)
	}
}

// TestVerifyAllReadsTheCodeRegion pins what Machine.VerifyAll sweeps: every
// block of the layout's data region, so a byte flipped below ProgAddr(0),
// which no LoadBytes offset reaches, is still refused.
func TestVerifyAllReadsTheCodeRegion(t *testing.T) {
	for _, scheme := range []Scheme{SchemeNaive, SchemeCached, SchemeMulti, SchemeIncr} {
		m, err := NewMachine(spanCfg(scheme, false))
		if err != nil {
			t.Fatal(err)
		}
		var stamp [8]byte
		binary.LittleEndian.PutUint64(stamp[:], 0xfeedface)
		if err := m.StoreBytes(64, stamp[:]); err != nil {
			t.Fatal(err)
		}
		if err := m.VerifyAll(); err != nil {
			t.Fatalf("%s: clean VerifyAll: %v", scheme, err)
		}
		m.EvictProtected()
		m.Adversary().Corrupt(m.Layout.DataStart()+10, 0x01)
		if err := m.VerifyAll(); err == nil || m.Sys.Stat.Violations == 0 {
			t.Fatalf("%s: VerifyAll passed over a flipped code-region byte (err %v)", scheme, err)
		}
	}
}
