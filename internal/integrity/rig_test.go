package integrity

import (
	"bytes"
	"fmt"
	"testing"

	"memverify/internal/bus"
	"memverify/internal/cache"
	"memverify/internal/dram"
	"memverify/internal/hashalg"
	"memverify/internal/htree"
	"memverify/internal/mem"
	"memverify/internal/trace"
)

// rig is a minimal functional machine around one engine: an L2, real
// memory behind an adversary, and a driver that reads and writes blocks
// the way the processor-side hierarchy does.
type rig struct {
	t      testing.TB
	sys    *System
	engine Engine
	adv    *mem.Adversary
	now    uint64
	rng    *trace.RNG
	shadow map[uint64][]byte // expected contents per block address
}

type rigConfig struct {
	scheme      string // "c", "m", "i", "naive", "base"
	protected   uint64
	l2Size      int
	blockSize   int
	chunkBlocks int
}

func defaultRig(scheme string) rigConfig {
	cb := 1
	if scheme == "m" || scheme == "i" {
		cb = 2
	}
	return rigConfig{scheme: scheme, protected: 64 << 10, l2Size: 8 << 10, blockSize: 64, chunkBlocks: cb}
}

func newRig(t testing.TB, cfg rigConfig) *rig {
	t.Helper()
	b := bus.New(8, 5)
	d := dram.New(80, b)
	backing := mem.NewSparse()
	adv := mem.NewAdversary(backing)

	layout, err := htree.NewLayout(cfg.blockSize*cfg.chunkBlocks, 16, cfg.protected)
	if err != nil {
		t.Fatal(err)
	}
	l2 := cache.New(cache.Config{
		Name: "L2", Size: cfg.l2Size, Ways: 4, BlockSize: cfg.blockSize, DataBearing: true,
	})
	sys := &System{
		L2:         l2,
		Mem:        adv,
		DRAM:       d,
		Unit:       NewHashUnit(80, 3.2, 16, 16),
		Layout:     layout,
		Alg:        hashalg.MD5{},
		L2Latency:  10,
		CheckReads: true,
		Functional: true,
	}
	r := &rig{t: t, sys: sys, adv: adv, rng: trace.NewRNG(42), shadow: make(map[uint64][]byte)}
	switch cfg.scheme {
	case "c", "m":
		r.engine = NewCached(sys)
	case "i":
		r.engine = NewIncr(sys, []byte("rig key"))
	case "naive":
		r.engine = NewNaive(sys)
	case "base":
		r.engine = NewBase(sys)
	default:
		t.Fatalf("unknown scheme %q", cfg.scheme)
	}

	// Deterministic initial data contents, then build the tree.
	buf := make([]byte, layout.Size()-layout.DataStart())
	for i := range buf {
		buf[i] = byte(i*131 + 7)
	}
	backing.Write(layout.DataStart(), buf)
	if init, ok := r.engine.(TreeWalker); ok && cfg.scheme != "base" {
		init.InitializeTree()
	}
	// Seed the shadow with initial contents.
	for ba := layout.DataStart(); ba < layout.Size(); ba += uint64(cfg.blockSize) {
		blk := make([]byte, cfg.blockSize)
		backing.Read(ba, blk)
		r.shadow[ba] = blk
	}
	return r
}

// dataBlocks returns the protected data block addresses.
func (r *rig) dataBlocks() []uint64 {
	var out []uint64
	bs := uint64(r.sys.BlockSize())
	for ba := r.sys.Layout.DataStart(); ba < r.sys.Layout.Size(); ba += bs {
		out = append(out, ba)
	}
	return out
}

// read performs a processor read of the block at addr and returns its
// bytes as the processor would see them.
func (r *rig) read(addr uint64) []byte {
	r.now += 3
	ba := r.sys.L2.BlockAddr(addr)
	ln := r.sys.L2.Read(ba, cache.Data)
	for try := 0; ln == nil; try++ {
		// As the machine does: a walk that evicted the block it fetched
		// leaves the path resident, so a refetch sticks.
		if try == fillRetries {
			r.t.Fatalf("block %#x not resident after ReadBlock", ba)
		}
		r.now = r.engine.ReadBlock(r.now, ba)
		ln = r.sys.L2.Peek(ba)
	}
	return append([]byte(nil), r.sys.L2.Bytes(ln)...)
}

// write performs a processor write of the whole block at addr.
func (r *rig) write(addr uint64, data []byte) {
	r.now += 3
	ba := r.sys.L2.BlockAddr(addr)
	ln := r.sys.L2.Write(ba, cache.Data)
	for try := 0; ln == nil; try++ {
		if try == fillRetries {
			r.t.Fatalf("block %#x not resident after write-allocate", ba)
		}
		r.now = r.engine.ReadBlock(r.now, ba)
		ln = r.sys.L2.Write(ba, cache.Data)
	}
	copy(r.sys.L2.Bytes(ln), data)
	r.shadow[ba] = append([]byte(nil), data...)
}

func (r *rig) flush() { r.now = r.engine.Flush(r.now) }

// randomWorkload drives n random block reads and writes over the
// protected region.
func (r *rig) randomWorkload(n int) {
	blocks := r.dataBlocks()
	for i := 0; i < n; i++ {
		ba := blocks[r.rng.Intn(len(blocks))]
		if r.rng.Float64() < 0.4 {
			data := make([]byte, r.sys.BlockSize())
			for j := range data {
				data[j] = byte(r.rng.Uint64())
			}
			r.write(ba, data)
		} else {
			got := r.read(ba)
			if want := r.shadow[ba]; !bytes.Equal(got, want) {
				r.t.Fatalf("read %#x returned wrong data", ba)
			}
		}
	}
}

// verifyMemoryTree checks the full stored tree against memory contents
// using the reference implementation (for hash schemes) or the MAC (for
// the incremental scheme). Call after flush, when every stored record must
// cover memory exactly.
func (r *rig) verifyMemoryTree() error {
	if inc, ok := r.engine.(*Incr); ok {
		l := r.sys.Layout
		for c := uint64(0); c < l.TotalChunks; c++ {
			img := make([]byte, l.ChunkSize)
			r.sys.Mem.Read(l.ChunkAddr(c), img)
			var rec []byte
			if addr, ok := l.HashAddr(c); ok {
				rec = make([]byte, 16)
				r.sys.Mem.Read(addr, rec)
			} else {
				rec = r.sys.Root
			}
			var tag [16]byte
			copy(tag[:], rec)
			if !inc.MAC().Verify(tag, splitBlocks(nil, img, r.sys.BlockSize())) {
				return fmt.Errorf("chunk %d MAC does not cover memory", c)
			}
		}
		return nil
	}
	tr := htree.NewTree(r.sys.Layout, r.sys.Alg, r.sys.Mem)
	tr.SetRoot(r.sys.Root)
	return tr.VerifyAll()
}

// protectedSchemes are the schemes under test everywhere.
var protectedSchemes = []string{"c", "m", "i", "naive"}
