package cache

import (
	"bytes"
	"testing"
)

func newTest(t *testing.T, size, ways, block int, data bool) *Cache {
	t.Helper()
	return New(Config{Name: "test", Size: size, Ways: ways, BlockSize: block, DataBearing: data})
}

func TestGeometry(t *testing.T) {
	c := newTest(t, 1024, 2, 64, false)
	if c.Sets() != 8 {
		t.Errorf("Sets = %d, want 8", c.Sets())
	}
	if c.BlockAddr(0x1234) != 0x1200 {
		t.Errorf("BlockAddr = %#x", c.BlockAddr(0x1234))
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cases := []Config{
		{Size: 1024, Ways: 2, BlockSize: 48},    // not a power of two
		{Size: 1024, Ways: 0, BlockSize: 64},    // zero ways
		{Size: 1000, Ways: 2, BlockSize: 64},    // size not divisible
		{Size: 3 * 128, Ways: 3, BlockSize: 64}, // sets not a power of two (3/3 -> ok?) size 384/192=2... adjust
	}
	cases[3] = Config{Size: 64 * 2 * 3, Ways: 2, BlockSize: 64} // 3 sets
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: New(%+v) did not panic", i, cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestReadMissFillHit(t *testing.T) {
	c := newTest(t, 1024, 2, 64, false)
	if c.Read(0x100, Data) != nil {
		t.Fatal("cold read hit")
	}
	c.Fill(0x100, Data, nil)
	ln := c.Read(0x13F, Data) // same block
	if ln == nil {
		t.Fatal("read after fill missed")
	}
	if ln.Addr != 0x100 {
		t.Errorf("line addr %#x", ln.Addr)
	}
	if c.Stat.Accesses[Data] != 2 || c.Stat.Misses[Data] != 1 {
		t.Errorf("stats: %+v", c.Stat)
	}
}

func TestWriteMissThenAllocate(t *testing.T) {
	c := newTest(t, 1024, 2, 64, false)
	if c.Write(0x200, Data) != nil {
		t.Fatal("write hit on empty cache")
	}
	c.Fill(0x200, Data, nil)
	ln := c.Write(0x200, Data)
	if ln == nil || !ln.Dirty {
		t.Fatal("write after allocate should hit and dirty the line")
	}
	if c.Stat.WriteMiss[Data] != 1 || c.Stat.Writes[Data] != 2 {
		t.Errorf("stats: %+v", c.Stat)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := newTest(t, 2*64, 2, 64, false) // one set, two ways
	c.Fill(0x000, Data, nil)
	c.Fill(0x040, Data, nil)
	c.Read(0x000, Data) // touch A so B is LRU
	ev := c.Fill(0x080, Data, nil)
	if !ev.Valid || ev.Addr != 0x040 {
		t.Fatalf("evicted %#x (valid %v), want 0x40", ev.Addr, ev.Valid)
	}
	if c.Peek(0x000) == nil || c.Peek(0x080) == nil {
		t.Error("wrong lines resident")
	}
}

func TestDirtyEvictionCarriesData(t *testing.T) {
	c := newTest(t, 2*64, 2, 64, true)
	data := bytes.Repeat([]byte{0xAB}, 64)
	c.Fill(0x000, Data, data)
	if ln := c.Write(0x000, Data); ln == nil {
		t.Fatal("write missed")
	}
	c.Fill(0x040, Data, nil)
	ev := c.Fill(0x080, Data, nil) // evicts 0x000 (LRU)
	if !ev.Valid || !ev.Dirty || ev.Addr != 0 {
		t.Fatalf("eviction: %+v", ev)
	}
	if !bytes.Equal(c.Bytes(&ev), data) {
		t.Error("evicted line lost its data")
	}
	// The returned copy must not alias the new resident line.
	c.Bytes(&ev)[0] = 0x00
	c.Fill(0x000, Data, data)
	if ln := c.Peek(0x000); ln != nil && c.Bytes(ln)[0] != 0xAB {
		t.Error("evicted copy aliases cache storage")
	}
}

func TestFillRefreshResident(t *testing.T) {
	c := newTest(t, 1024, 2, 64, true)
	c.Fill(0x100, Data, bytes.Repeat([]byte{1}, 64))
	ev := c.Fill(0x100, Data, bytes.Repeat([]byte{2}, 64))
	if ev.Valid {
		t.Error("refill of resident line evicted something")
	}
	if ln := c.Peek(0x100); c.Bytes(ln)[0] != 2 {
		t.Error("refill did not refresh contents")
	}
}

func TestInvalidate(t *testing.T) {
	c := newTest(t, 1024, 2, 64, false)
	c.Fill(0x100, Hash, nil)
	ln := c.Invalidate(0x100)
	if !ln.Valid || ln.Class != Hash {
		t.Fatalf("invalidate returned %+v", ln)
	}
	if c.Peek(0x100) != nil {
		t.Error("line still resident after invalidate")
	}
	if c.ResidentLines() != 0 {
		t.Errorf("ResidentLines = %d", c.ResidentLines())
	}
	if c.Invalidate(0x999).Valid {
		t.Error("invalidating absent line returned valid")
	}
}

func TestDirtyLinesAndClean(t *testing.T) {
	c := newTest(t, 1024, 2, 64, false)
	c.Fill(0x000, Data, nil)
	c.Fill(0x040, Data, nil)
	c.Write(0x000, Data)
	dirty := c.AppendDirty(nil)
	if len(dirty) != 1 || dirty[0] != 0 {
		t.Fatalf("AppendDirty = %#x", dirty)
	}
	if again := c.AppendDirty(dirty); len(again) != 2 || again[0] != 0 || again[1] != 0 {
		t.Fatalf("AppendDirty onto %#x = %#x", dirty, again)
	}
	c.Clean(0x000)
	if len(c.AppendDirty(nil)) != 0 {
		t.Error("Clean did not clean")
	}
}

func TestPerClassStats(t *testing.T) {
	c := newTest(t, 1024, 2, 64, false)
	c.Read(0x000, Data)
	c.Read(0x040, Hash)
	c.Fill(0x000, Data, nil)
	c.Fill(0x040, Hash, nil)
	c.Read(0x000, Data)
	c.Read(0x040, Hash)
	if c.Stat.Misses[Data] != 1 || c.Stat.Misses[Hash] != 1 {
		t.Errorf("misses: %+v", c.Stat)
	}
	if c.Stat.MissRate(Data) != 0.5 {
		t.Errorf("data miss rate %f", c.Stat.MissRate(Data))
	}
	var empty Stats
	if empty.MissRate(Data) != 0 {
		t.Error("empty MissRate should be 0")
	}
}

func TestTagOnlyHasNoData(t *testing.T) {
	c := newTest(t, 1024, 2, 64, false)
	c.Fill(0x100, Data, bytes.Repeat([]byte{7}, 64))
	if ln := c.Peek(0x100); c.Bytes(ln) != nil {
		t.Error("tag-only cache retained data")
	}
}

func TestResetStats(t *testing.T) {
	c := newTest(t, 1024, 2, 64, false)
	c.Read(0, Data)
	c.ResetStats()
	if c.Stat.Accesses[Data] != 0 {
		t.Error("ResetStats failed")
	}
}
