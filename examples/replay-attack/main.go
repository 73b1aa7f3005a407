// The XOM replay attack (§4.4): per-block MACs — even address-bound ones —
// cannot tell whether memory returned *fresh* data, only whether it
// returned data the same program once stored there. The paper's example is
// a loop whose counter gets swapped to memory: by replaying the counter's
// old value, an attacker makes an output loop run past its bound and leak
// adjacent secrets.
//
// This demo builds that scenario twice:
//
//  1. against an XOM-like memory (each block protected by an address-bound
//     keyed MAC, no tree): every replayed read verifies and the loop leaks
//     data beyond its bound;
//
//  2. against the paper's hash-tree machine: the first replayed read
//     raises an integrity violation.
//
//     go run ./examples/replay-attack
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"

	"memverify/internal/core"
	"memverify/internal/hashalg"
	"memverify/internal/mem"
	"memverify/internal/trace"
)

// xomMemory is a minimal XOM-style protected memory: each 64-byte block
// is stored with MAC = H(key ‖ address ‖ data). The address binding stops
// copy/splice attacks; nothing stops replay of an old (data, MAC) pair.
type xomMemory struct {
	data *mem.Sparse
	macs map[uint64][]byte // block addr -> MAC of the *current* contents
	key  []byte
	alg  hashalg.Algorithm
}

func newXOM() *xomMemory {
	return &xomMemory{
		data: mem.NewSparse(),
		macs: make(map[uint64][]byte),
		key:  []byte("xom-compartment-key"),
		alg:  hashalg.MD5{},
	}
}

func (x *xomMemory) mac(addr uint64, block []byte) []byte {
	buf := make([]byte, 0, len(x.key)+8+len(block))
	buf = append(buf, x.key...)
	var a [8]byte
	binary.LittleEndian.PutUint64(a[:], addr)
	buf = append(buf, a[:]...)
	buf = append(buf, block...)
	return x.alg.Sum(buf)
}

func (x *xomMemory) write(addr uint64, block []byte) {
	x.data.Write(addr, block)
	x.macs[addr] = x.mac(addr, block)
}

// read returns the block and whether its MAC verified.
func (x *xomMemory) read(addr uint64) ([]byte, bool) {
	block := make([]byte, 64)
	x.data.Read(addr, block)
	return block, bytes.Equal(x.macs[addr], x.mac(addr, block))
}

// leakyLoopXOM runs the paper's code fragment over XOM memory while the
// adversary replays the loop counter. outputData models copying data out
// of the secure compartment.
func leakyLoopXOM() (leaked []uint64) {
	x := newXOM()

	// data[0..size) are public outputs; data[size..) are secrets that must
	// never leave the compartment.
	const size, secretStart, blocks = 4, 4, 16
	for i := 0; i < blocks; i++ {
		block := make([]byte, 64)
		for j := 0; j < 8; j++ {
			binary.LittleEndian.PutUint64(block[j*8:], uint64(i*8+j)|0xD000)
		}
		x.write(uint64(0x1000+i*64), block)
	}

	// The loop counter i lives in its own cache line and gets swapped to
	// memory each iteration (the attacker runs the victim single-stepped,
	// §4.4). The adversary records (counter=1, MAC) from iteration one.
	const counterAddr = 0x0
	writeCounter := func(v uint64) {
		blk := make([]byte, 64)
		binary.LittleEndian.PutUint64(blk, v)
		x.write(counterAddr, blk)
	}
	writeCounter(0)

	var replayData []byte
	var replayMAC []byte

	// `data` is the walking pointer of outputdata(*data++); it lives in a
	// register (or its own cache line) and is NOT replayed — only the loop
	// counter i is. That is exactly the paper's scenario.
	dataPtr := uint64(0)
	for iter := 0; iter < 12; iter++ { // the source loop bound is size=4!
		blk, ok := x.read(counterAddr)
		if !ok {
			log.Fatal("XOM flagged an honest-looking read (bug in demo)")
		}
		i := binary.LittleEndian.Uint64(blk)
		if i >= size {
			break // loop exit condition — which the replay prevents
		}
		// outputdata(*data++): one value leaves the compartment.
		dblk, ok := x.read(uint64(0x1000 + (dataPtr/8)*64))
		if !ok {
			log.Fatal("data MAC failed unexpectedly")
		}
		leaked = append(leaked, binary.LittleEndian.Uint64(dblk[(dataPtr%8)*8:]))
		dataPtr++

		// i++ followed by swap-out.
		writeCounter(i + 1)

		// The adversary recorded (i=1, MAC) during an early iteration...
		if iter == 0 {
			replayData, _ = x.read(counterAddr)
			replayMAC = x.macs[counterAddr]
		}
		// ...and replaces every later swap-out with it, so i never
		// reaches the bound.
		if replayData != nil {
			x.data.Write(counterAddr, replayData)
			x.macs[counterAddr] = replayMAC
		}
	}
	return leaked
}

// replayAgainstTree mounts the same counter replay against the hash-tree
// machine and returns the detection error.
func replayAgainstTree() error {
	cfg := core.DefaultConfig()
	cfg.Scheme = core.SchemeCached
	cfg.Benchmark = trace.Uniform("victim", 64<<10)
	cfg.Benchmark.CodeSet = 16 << 10
	cfg.ProtectedBytes = 1 << 20
	cfg.L2Size = 16 << 10
	cfg.Functional = true
	cfg.HashAlg = "md5"
	m, err := core.NewMachine(cfg)
	if err != nil {
		return err
	}

	counter := func(v uint64) []byte {
		b := make([]byte, 8)
		binary.LittleEndian.PutUint64(b, v)
		return b
	}
	if err := m.StoreBytes(0, counter(1)); err != nil {
		return err
	}
	m.Flush() // counter value 1 goes to memory (with its hash)

	// Adversary snapshots the counter's block and its whole neighbourhood.
	adv := m.Adversary()
	snap := adv.Snapshot(0, m.Layout.Size())

	// The loop increments the counter; write-back updates the tree.
	if err := m.StoreBytes(0, counter(4)); err != nil {
		return err
	}
	m.EvictProtected() // flush, then drop every cached copy: the load reads memory

	// Replay the old counter (and, generously, all of old memory).
	adv.Replay(snap)
	got := make([]byte, 8)
	return m.LoadBytes(0, got) // must fail: the root register moved on
}

func main() {
	fmt.Println("— XOM-like per-block MACs (no freshness) —")
	leaked := leakyLoopXOM()
	fmt.Printf("loop bound was 4, but %d values left the compartment: %x\n", len(leaked), leaked)
	if len(leaked) <= 4 {
		log.Fatal("replay failed to extend the loop (demo bug)")
	}
	fmt.Printf("values 5..%d are secrets leaked by replaying the stale counter\n\n", len(leaked))

	fmt.Println("— The same replay against the hash tree —")
	if err := replayAgainstTree(); err != nil {
		fmt.Printf("detected immediately: %v\n", err)
	} else {
		log.Fatal("hash tree missed the replay (bug)")
	}
	fmt.Println("\nFreshness comes from the on-chip root: stale data cannot re-enter.")
}
