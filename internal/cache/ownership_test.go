package cache

import (
	"bytes"
	"math/bits"
	"testing"
	"unsafe"

	"memverify/internal/trace"
)

// TestLineBuffersHaveOneOwner drives a small data-bearing cache through
// seeded Fill/Write/Invalidate/AppendDirty/Release sequences and checks the
// ownership rule after every step: each line buffer is reachable from
// exactly one of a resident slot, a line the caller still holds, or the
// free list, and every buffer the cache has made is reachable from one of
// them — none is lost, however many a burst of invalidations hands back.
// Every release is followed by a second one through a stale copy of the
// line, which must panic. Contents are checked against a model kept from
// the cache's return values, with released buffers poisoned, so sharing or
// reuse without a clear would also show up as wrong bytes.
func TestLineBuffersHaveOneOwner(t *testing.T) {
	PoisonReleased = true
	defer func() { PoisonReleased = false }()

	type resident struct {
		data  []byte
		dirty bool
	}
	for _, seed := range []uint64{1, 7, 2026} {
		rng := trace.NewRNG(seed)
		c := newTest(t, 8*64, 2, 64, true) // 4 sets x 2 ways
		model := map[uint64]*resident{}
		var held []Line // handed out with Data, not yet released

		check := func(op int) {
			t.Helper()
			owner := map[*byte]string{}
			claim := func(buf []byte, who string) {
				t.Helper()
				if len(buf) != 64 {
					t.Fatalf("seed %d op %d: %s holds a %d-byte buffer", seed, op, who, len(buf))
				}
				if prev, ok := owner[&buf[0]]; ok {
					t.Fatalf("seed %d op %d: one buffer owned by %s and %s", seed, op, prev, who)
				}
				owner[&buf[0]] = who
			}
			n := 0
			for _, set := range c.sets {
				for i := range set {
					if !set[i].Valid {
						if set[i].Data != nil {
							t.Fatalf("seed %d op %d: an empty slot kept a buffer", seed, op)
						}
						continue
					}
					n++
					claim(set[i].Data, "a resident line")
					want, ok := model[set[i].Addr]
					if !ok {
						t.Fatalf("seed %d op %d: %#x resident, model disagrees", seed, op, set[i].Addr)
					}
					if !bytes.Equal(set[i].Data, want.data) || set[i].Dirty != want.dirty {
						t.Fatalf("seed %d op %d: line %#x holds the wrong bytes or dirty bit", seed, op, set[i].Addr)
					}
				}
			}
			if n != len(model) {
				t.Fatalf("seed %d op %d: %d lines resident, model has %d", seed, op, n, len(model))
			}
			for _, ln := range held {
				claim(ln.Data, "a line the caller holds")
			}
			bitsSet := 0
			for _, i := range c.free {
				if c.freeBits[i/bufsPerChunk]&(1<<(i%bufsPerChunk)) == 0 {
					t.Fatalf("seed %d op %d: buffer %d is on the free list without its free bit", seed, op, i)
				}
				claim(c.buffer(i), "the free list")
			}
			for _, w := range c.freeBits {
				bitsSet += bits.OnesCount64(w)
			}
			if bitsSet != len(c.free) {
				t.Fatalf("seed %d op %d: %d free bits set, %d buffers on the free list", seed, op, bitsSet, len(c.free))
			}
			// Conservation: every buffer made has exactly one owner.
			if len(owner) != c.made {
				t.Fatalf("seed %d op %d: %d buffers made, %d owned", seed, op, c.made, len(owner))
			}
			for i := 0; i < c.made; i++ {
				if _, ok := owner[&c.buffer(uint32(i))[0]]; !ok {
					t.Fatalf("seed %d op %d: buffer %d has no owner", seed, op, i)
				}
			}
		}

		for op := 0; op < 6000; op++ {
			addr := uint64(rng.Intn(32) * 64) // 4x capacity
			switch rng.Intn(8) {
			case 0, 1, 2: // Fill with data, or the §5.3 nil-data allocate
				var data []byte
				if rng.Intn(3) > 0 {
					data = bytes.Repeat([]byte{byte(rng.Uint64())}, 64)
				}
				_, wasResident := model[addr]
				ev := c.Fill(addr, Data, data)
				if ev.Valid {
					old, ok := model[ev.Addr]
					if !ok || ev.Dirty != old.dirty {
						t.Fatalf("seed %d op %d: evicted %#x, model disagrees", seed, op, ev.Addr)
					}
					if ev.Dirty {
						if !bytes.Equal(ev.Data, old.data) {
							t.Fatalf("seed %d op %d: dirty victim %#x lost its bytes", seed, op, ev.Addr)
						}
						held = append(held, ev)
					} else if ev.Data != nil {
						t.Fatalf("seed %d op %d: clean victim %#x left with a buffer", seed, op, ev.Addr)
					}
					delete(model, ev.Addr)
				}
				switch {
				case !wasResident && data == nil:
					// Over a recycled (poisoned) buffer too, the line reads zero.
					model[addr] = &resident{data: make([]byte, 64)}
				case !wasResident:
					model[addr] = &resident{data: data}
				case data != nil:
					model[addr].data = data
				}
			case 3, 4: // Write hit: dirty the line and change its bytes in place
				if ln := c.Write(addr, Data); ln != nil {
					ln.Data[rng.Intn(64)] ^= 0xFF
					model[addr] = &resident{data: append([]byte(nil), ln.Data...), dirty: true}
				}
			case 5: // Invalidate: the line leaves with its buffer, dirty or not
				if ln := c.Invalidate(addr); ln.Valid {
					if !bytes.Equal(ln.Data, model[addr].data) {
						t.Fatalf("seed %d op %d: invalidated %#x lost its bytes", seed, op, addr)
					}
					held = append(held, ln)
					delete(model, addr)
				}
			case 6: // AppendDirty: addresses only, never the slots' bytes
				dirty := 0
				for _, r := range model {
					if r.dirty {
						dirty++
					}
				}
				addrs := c.AppendDirty(nil)
				if len(addrs) != dirty {
					t.Fatalf("seed %d op %d: AppendDirty %d, model %d", seed, op, len(addrs), dirty)
				}
				for _, addr := range addrs {
					if !model[addr].dirty {
						t.Fatalf("seed %d op %d: AppendDirty entry %#x is clean", seed, op, addr)
					}
				}
			case 7: // Release a held line; sometimes try to do it twice
				if len(held) == 0 {
					break
				}
				i := rng.Intn(len(held))
				ln := held[i]
				held = append(held[:i], held[i+1:]...)
				stale := ln
				c.Release(&ln)
				if ln.Data != nil {
					t.Fatalf("seed %d op %d: a released line still reaches its buffer", seed, op)
				}
				c.Release(&ln) // the same line again: nothing left to release
				if !panics(func() { c.Release(&stale) }) {
					t.Fatalf("seed %d op %d: double release through a copy went unnoticed", seed, op)
				}
			}
			check(op)
		}
	}
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// TestReleaseRejectsForeignBuffer covers the release errors that are not
// a double release: a buffer that cannot be one of this cache's lines, and
// a line-sized one the cache did not make — from another cache too.
func TestReleaseRejectsForeignBuffer(t *testing.T) {
	c := newTest(t, 1024, 2, 64, true)
	if !panics(func() { c.Release(&Line{Data: make([]byte, 32)}) }) {
		t.Error("a 32-byte buffer was accepted by a cache of 64-byte lines")
	}
	c.Release(&Line{}) // timing-only lines and clean victims carry nothing
	if !panics(func() { c.Release(&Line{Data: make([]byte, 64)}) }) {
		t.Error("a 64-byte buffer the cache never made was accepted (none made yet)")
	}
	c.Fill(0x40, Data, nil)
	if !panics(func() { c.Release(&Line{Data: make([]byte, 64)}) }) {
		t.Error("a 64-byte buffer the cache never made was accepted")
	}
	other := newTest(t, 1024, 2, 64, true)
	other.Fill(0x40, Data, nil)
	ln := other.Invalidate(0x40)
	if !panics(func() { c.Release(&ln) }) {
		t.Error("another cache's buffer was accepted")
	}
	if got := c.Invalidate(0x40); got.Data == nil {
		t.Fatal("the cache's own line came back without its buffer")
	} else {
		c.Release(&got)
	}
}

// TestLineSize pins Line at 48 bytes: the buffer index lives in the
// padding after the flags, so sets stay as dense as before it.
func TestLineSize(t *testing.T) {
	if n := unsafe.Sizeof(Line{}); n != 48 {
		t.Errorf("a Line is %d bytes, want 48", n)
	}
}
