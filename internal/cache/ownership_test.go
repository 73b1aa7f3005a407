package cache

import (
	"bytes"
	"math/bits"
	"reflect"
	"slices"
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
// line, which must panic, and so must a release through an older stale
// copy whose buffer a fill has taken again since. Contents are checked
// against a model kept from the cache's return values, with released
// buffers poisoned, so sharing or reuse without a clear would also show up
// as wrong bytes.
func TestLineBuffersHaveOneOwner(t *testing.T) {
	PoisonReleased = true
	defer func() { PoisonReleased = false }()

	type resident struct {
		data  []byte
		dirty bool
	}
	reusedStale := 0
	for _, seed := range []uint64{1, 7, 2026} {
		rng := trace.NewRNG(seed)
		c := newTest(t, 8*64, 2, 64, true) // 4 sets x 2 ways
		model := map[uint64]*resident{}
		var held []Line  // handed out with a buffer, not yet released
		var stale []Line // copies of lines released earlier

		check := func(op int) {
			t.Helper()
			owner := map[uint32]string{}
			claim := func(buf uint32, who string) {
				t.Helper()
				if buf == 0 || int(buf) > c.made {
					t.Fatalf("seed %d op %d: %s names buffer %d of %d", seed, op, who, buf, c.made)
				}
				if prev, ok := owner[buf]; ok {
					t.Fatalf("seed %d op %d: one buffer owned by %s and %s", seed, op, prev, who)
				}
				owner[buf] = who
			}
			n := 0
			for i := range c.lines {
				ln := &c.lines[i]
				if !ln.Valid {
					if ln.buf != 0 {
						t.Fatalf("seed %d op %d: an empty slot kept a buffer", seed, op)
					}
					continue
				}
				n++
				claim(ln.buf, "a resident line")
				if c.isOut(ln.buf) {
					t.Fatalf("seed %d op %d: resident line %#x's buffer is marked out", seed, op, ln.Addr)
				}
				want, ok := model[ln.Addr]
				if !ok {
					t.Fatalf("seed %d op %d: %#x resident, model disagrees", seed, op, ln.Addr)
				}
				if !bytes.Equal(c.Bytes(ln), want.data) || ln.Dirty != want.dirty {
					t.Fatalf("seed %d op %d: line %#x holds the wrong bytes or dirty bit", seed, op, ln.Addr)
				}
			}
			if n != len(model) {
				t.Fatalf("seed %d op %d: %d lines resident, model has %d", seed, op, n, len(model))
			}
			for _, ln := range held {
				claim(ln.buf, "a line the caller holds")
				if !c.isOut(ln.buf) || c.addrs[ln.buf-1] != ln.Addr {
					t.Fatalf("seed %d op %d: held line %#x's buffer is not out holding it", seed, op, ln.Addr)
				}
			}
			for _, i := range c.free {
				claim(i, "the free list")
				if c.isOut(i) || c.addrs[i-1] != releasedAddr {
					t.Fatalf("seed %d op %d: free buffer %d is out or holds a block", seed, op, i)
				}
			}
			outBits := 0
			for _, w := range c.out {
				outBits += bits.OnesCount64(w)
			}
			if outBits != len(held) {
				t.Fatalf("seed %d op %d: %d out bits set, the caller holds %d buffers", seed, op, outBits, len(held))
			}
			// Conservation: every buffer made has exactly one owner.
			if len(owner) != c.made {
				t.Fatalf("seed %d op %d: %d buffers made, %d owned", seed, op, c.made, len(owner))
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
						if !bytes.Equal(c.Bytes(&ev), old.data) {
							t.Fatalf("seed %d op %d: dirty victim %#x lost its bytes", seed, op, ev.Addr)
						}
						held = append(held, ev)
					} else if ev.buf != 0 {
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
					c.Bytes(ln)[rng.Intn(64)] ^= 0xFF
					model[addr] = &resident{data: append([]byte(nil), c.Bytes(ln)...), dirty: true}
				}
			case 5: // Invalidate: the line leaves with its buffer, dirty or not
				if ln := c.Invalidate(addr); ln.Valid {
					if !bytes.Equal(c.Bytes(&ln), model[addr].data) {
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
			case 7: // Release a held line; try again through stale copies
				if len(held) == 0 {
					break
				}
				i := rng.Intn(len(held))
				ln := held[i]
				held = append(held[:i], held[i+1:]...)
				copyOf := ln
				c.Release(&ln)
				if ln.buf != 0 || c.Bytes(&ln) != nil {
					t.Fatalf("seed %d op %d: a released line still reaches its buffer", seed, op)
				}
				c.Release(&ln) // the same line again: nothing left to release
				if !panics(func() { c.Release(&copyOf) }) {
					t.Fatalf("seed %d op %d: double release through a copy went unnoticed", seed, op)
				}
				if !panics(func() { c.Bytes(&copyOf) }) {
					t.Fatalf("seed %d op %d: a stale copy reached its released buffer", seed, op)
				}
				// An older stale copy, whose buffer may be resident or out
				// again since. Out again holding the same block is the one
				// case a copy cannot be told from the new owner.
				if len(stale) > 0 {
					old := stale[rng.Intn(len(stale))]
					undetectable := false
					for _, h := range held {
						undetectable = undetectable || h.buf == old.buf && h.Addr == old.Addr
					}
					if !undetectable {
						if c.addrs[old.buf-1] != releasedAddr && !c.isOut(old.buf) {
							reusedStale++ // a fill has taken the buffer again
						}
						if !panics(func() { c.Release(&old) }) {
							t.Fatalf("seed %d op %d: release through a stale copy of %#x went unnoticed", seed, op, old.Addr)
						}
					}
				}
				if stale = append(stale, copyOf); len(stale) > 16 {
					stale = stale[1:]
				}
			}
			check(op)
		}
	}
	if reusedStale == 0 {
		t.Error("no stale release met a buffer a fill had reused")
	}
}

// isOut reports whether buffer i is held by a caller.
func (c *Cache) isOut(i uint32) bool {
	return c.out[(i-1)/bufsPerChunk]&(1<<((i-1)%bufsPerChunk)) != 0
}

func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// TestReleaseRejectsForeignBuffer covers the release errors that are not
// a double release: a buffer index the cache never made, a resident
// buffer, and lines of another cache — one whose index names a buffer
// resident here, and one whose index names a buffer that is out here for
// another block.
func TestReleaseRejectsForeignBuffer(t *testing.T) {
	c := newTest(t, 1024, 2, 64, true)
	c.Release(&Line{}) // timing-only lines and clean victims carry nothing
	if !panics(func() { c.Release(&Line{Addr: 0x40, buf: 1}) }) {
		t.Error("a buffer the cache never made was accepted (none made yet)")
	}
	c.Fill(0x40, Data, nil)   // buffer 1
	c.Fill(0x80, Data, nil)   // buffer 2
	c.Fill(0xc0, Data, nil)   // buffer 3
	out := c.Invalidate(0x80) // buffer 2 is out here, holding 0x80
	if !panics(func() { c.Release(&Line{Addr: 0x40, buf: 4}) }) {
		t.Error("a buffer the cache never made was accepted")
	}
	if !panics(func() { c.Release(&Line{Addr: 0x40, buf: 1}) }) {
		t.Error("a copy of a resident line released its buffer")
	}

	other := newTest(t, 1024, 2, 64, true)
	other.Fill(0x40, Data, nil)   // buffer 1, as 0x40 is here
	other.Fill(0x1000, Data, nil) // buffer 2, out here for 0x80
	resident := other.Invalidate(0x40)
	foreign := other.Invalidate(0x1000)
	if !panics(func() { c.Release(&resident) }) {
		t.Error("another cache's line was accepted over a buffer resident here")
	}
	if !panics(func() { c.Release(&foreign) }) {
		t.Error("another cache's line was accepted over a buffer out here")
	}
	other.Release(&resident)
	other.Release(&foreign)

	c.Release(&out)
	if got := c.Invalidate(0x40); c.Bytes(&got) == nil {
		t.Fatal("the cache's own line came back without its buffer")
	} else {
		c.Release(&got)
	}
}

// TestBytesRejectsAnotherCachesLine: a resident line of one cache names
// a buffer by its index there, and another cache must not resolve it to
// whichever buffer of its own has that index — nor to one it never made.
func TestBytesRejectsAnotherCachesLine(t *testing.T) {
	l2 := newTest(t, 1024, 2, 64, true)
	vc := newTest(t, 1024, 2, 64, true)
	l2.Fill(0x40, Data, nil)
	vc.Fill(0x2000, Hash, nil)
	vc.Fill(0x3000, Hash, nil)
	for _, addr := range []uint64{0x2000, 0x3000} { // buffer 1 (made in l2 too), buffer 2 (not)
		ln := vc.Peek(addr)
		if vc.Bytes(ln) == nil {
			t.Fatalf("%#x: its own cache found no bytes", addr)
		}
		if !panics(func() { l2.Bytes(ln) }) {
			t.Errorf("%#x: another cache resolved a verification-cache line", addr)
		}
	}
	if ln := l2.Peek(0x40); len(l2.Bytes(ln)) != 64 {
		t.Error("the L2's own line lost its bytes")
	}
}

// TestAppendDirtyOrder pins AppendDirty's order: set by set, and within a
// set way by way, whatever order the lines were filled or dirtied in.
func TestAppendDirtyOrder(t *testing.T) {
	c := newTest(t, 8*64, 2, 64, false) // 4 sets x 2 ways
	for _, addr := range []uint64{0x0c0, 0x000, 0x100, 0x040, 0x1c0, 0x080} {
		c.Fill(addr, Data, nil)
	}
	for _, addr := range []uint64{0x1c0, 0x040, 0x100, 0x0c0, 0x000} {
		c.Write(addr, Data)
	}
	want := []uint64{0x000, 0x100, 0x040, 0x0c0, 0x1c0}
	if got := c.AppendDirty(nil); !slices.Equal(got, want) {
		t.Errorf("AppendDirty = %#x, want %#x", got, want)
	}
}

// TestLineSize pins Line at 24 bytes with no pointer in it: the index of
// a line's buffer replaces the slice header, so a timing-only cache's
// line array is half the size it was and the collector never scans it.
func TestLineSize(t *testing.T) {
	if n := unsafe.Sizeof(Line{}); n != 24 {
		t.Errorf("a Line is %d bytes, want 24", n)
	}
	lt := reflect.TypeOf(Line{})
	for i := 0; i < lt.NumField(); i++ {
		switch f := lt.Field(i); f.Type.Kind() {
		case reflect.Uint64, reflect.Uint32, reflect.Uint8, reflect.Bool:
		default:
			t.Errorf("Line.%s is a %s", f.Name, f.Type)
		}
	}
}
