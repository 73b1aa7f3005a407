// DMA and secure-mode initialization (§5.7): devices write memory behind
// the processor's back, so DMA lands in an *unprotected* region that the
// tree does not cover; the program inspects it there (ReadWithoutChecking),
// then copies it into protected memory, after which the hash tree
// guarantees its integrity. The demo also walks the paper's boot
// procedure: hash-for-writes-only → touch every chunk → flush → arm
// exceptions.
//
//	go run ./examples/dma-init
package main

import (
	"bytes"
	"fmt"
	"log"

	"memverify/internal/core"
	"memverify/internal/integrity"
	"memverify/internal/trace"
)

func main() {
	cfg := core.DefaultConfig()
	cfg.Scheme = core.SchemeCached
	cfg.Benchmark = trace.Uniform("dma-demo", 32<<10)
	cfg.Benchmark.CodeSet = 16 << 10
	cfg.ProtectedBytes = 256 << 10
	cfg.L2Size = 16 << 10
	cfg.Functional = true
	cfg.HashAlg = "md5"
	m, err := core.NewMachine(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// --- The paper's initialization procedure (§5.7.2) ---------------
	// The machine above was initialized the fast way; rerun secure-mode
	// entry the paper's way to show it works end to end:
	//   1. hashing on for writes, exceptions off; 2. touch every chunk;
	//   3. flush the cache (cascading tree computation); 4. arm checks.
	cycles, err := integrity.InitializeByTouch(m.Engine, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("secure mode entered: %d chunks covered, boot procedure took %d cycles\n",
		m.Layout.TotalChunks, cycles)

	// --- A NIC DMAs a packet into the unprotected region --------------
	packet := bytes.Repeat([]byte("payload!"), 32) // 256 bytes
	dmaBase := m.UnprotectedBase()
	m.Sys.Mem.Write(dmaBase, packet) // the device writes memory directly
	fmt.Printf("NIC wrote %d bytes at %#x (beyond the tree's %#x)\n",
		len(packet), dmaBase, m.Layout.Size())

	// --- The processor inspects it without checking -------------------
	// Reads beyond the protected region use the ReadWithoutChecking path:
	// no verification, no exception — the data has an untrusted origin.
	inspect := make([]byte, len(packet))
	now := uint64(cycles)
	for i := range inspect {
		b := readUnprotected(m, dmaBase+uint64(i), &now)
		inspect[i] = b
	}
	if !bytes.Equal(inspect, packet) {
		log.Fatal("unprotected read mismatch")
	}
	fmt.Println("processor read the packet via ReadWithoutChecking (no exceptions)")

	// --- Copy into protected memory, then it is covered ---------------
	if err := m.StoreBytes(0, inspect); err != nil {
		log.Fatal(err)
	}
	m.Flush()
	fmt.Println("packet copied into protected memory and flushed through the tree")

	// The unprotected original can be corrupted silently...
	m.Adversary().Corrupt(dmaBase, 0xFF)
	ln := m.L2.Invalidate(dmaBase) // drop the cached copy; re-read memory
	m.L2.Release(&ln)
	if got := readUnprotected(m, dmaBase, &now); got == packet[0] {
		log.Fatal("corruption of DMA region had no effect?")
	}
	fmt.Println("adversary corrupted the DMA region: no exception (by design)")

	// ...but the protected copy cannot.
	dropCaches(m)
	m.Adversary().Corrupt(m.ProgAddr(0), 0xFF)
	if err := m.LoadBytes(0, make([]byte, 8)); err != nil {
		fmt.Printf("adversary corrupted the protected copy: %v\n", err)
	} else {
		log.Fatal("protected copy corruption went undetected (bug)")
	}
}

// readUnprotected issues a processor load to the unprotected region
// through the normal hierarchy path.
func readUnprotected(m *core.Machine, addr uint64, now *uint64) byte {
	ba := addr &^ uint64(m.Cfg.L2Block-1)
	ln := m.L2.Peek(ba)
	if ln == nil {
		*now = m.Engine.ReadBlock(*now, ba)
		ln = m.L2.Peek(ba)
		if ln == nil {
			log.Fatal("unprotected fill failed")
		}
	}
	return m.L2.Bytes(ln)[addr-ba]
}

// dropCaches invalidates every protected block so the next load re-reads
// memory, handing each line's buffer back to the L2.
func dropCaches(m *core.Machine) {
	for ba := uint64(0); ba < m.Layout.Size(); ba += uint64(m.Cfg.L2Block) {
		ln := m.L2.Invalidate(ba)
		m.L2.Release(&ln)
	}
}
