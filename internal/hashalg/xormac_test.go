package hashalg

import (
	"testing"
	"testing/quick"
)

func macBlocks(n, bs int, seed byte) [][]byte {
	blocks := make([][]byte, n)
	for i := range blocks {
		b := make([]byte, bs)
		for j := range b {
			b[j] = seed + byte(i*31+j)
		}
		blocks[i] = b
	}
	return blocks
}

func TestXorMACVerify(t *testing.T) {
	m := NewXorMAC(MD5{}, []byte("key"))
	blocks := macBlocks(4, 64, 1)
	tag := m.Compute(blocks, 0b0101)
	if !m.Verify(tag, blocks) {
		t.Fatal("tag does not verify its own blocks")
	}
	if m.Stamps(tag) != 0b0101 {
		t.Fatalf("Stamps = %08b, want 0101", m.Stamps(tag))
	}
}

func TestXorMACDetectsBlockTampering(t *testing.T) {
	m := NewXorMAC(MD5{}, []byte("key"))
	blocks := macBlocks(4, 64, 1)
	tag := m.Compute(blocks, 0)
	for i := range blocks {
		for _, bit := range []int{0, 13, 511} {
			mod := macBlocks(4, 64, 1)
			mod[i][bit/8] ^= 1 << (bit % 8)
			if m.Verify(tag, mod) {
				t.Errorf("tampering block %d bit %d went undetected", i, bit)
			}
		}
	}
}

func TestXorMACDetectsBlockSwap(t *testing.T) {
	m := NewXorMAC(MD5{}, []byte("key"))
	blocks := macBlocks(2, 64, 7)
	tag := m.Compute(blocks, 0)
	swapped := [][]byte{blocks[1], blocks[0]}
	if m.Verify(tag, swapped) {
		t.Error("swapping blocks went undetected (index not bound into terms)")
	}
}

func TestXorMACDetectsStampTampering(t *testing.T) {
	m := NewXorMAC(MD5{}, []byte("key"))
	blocks := macBlocks(2, 64, 3)
	tagA := m.Compute(blocks, 0b01)
	tagB := m.Compute(blocks, 0b00)
	if tagA == tagB {
		t.Error("stamps not bound into the tag")
	}
	if m.Verify(tagB, blocks) != true {
		t.Error("tagB should verify (stamps travel inside the tag)")
	}
}

// TestXorMACUpdateEquivalence is the central incremental property: updating
// one block's contribution must produce exactly the tag a from-scratch
// computation over the new blocks and flipped stamp would.
func TestXorMACUpdateEquivalence(t *testing.T) {
	m := NewXorMAC(MD5{}, []byte("key"))
	check := func(a, b, c [8]byte, idx uint8, stamps byte) bool {
		i := int(idx) % 3
		blocks := [][]byte{a[:], b[:], c[:]}
		tag := m.Compute(blocks, stamps)

		newBlock := make([]byte, 8)
		copy(newBlock, blocks[i])
		newBlock[0] ^= 0xff
		updated := m.Update(tag, i, blocks[i], newBlock)

		after := [][]byte{a[:], b[:], c[:]}
		after[i] = newBlock
		want := m.Compute(after, stamps^(1<<uint(i)))
		return updated == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestXorMACRepeatedUpdates(t *testing.T) {
	m := NewXorMAC(SHA1{}, []byte("key2"))
	blocks := macBlocks(4, 32, 9)
	tag := m.Compute(blocks, 0)
	// Write back block 2 five times; the stamp must flip each time and the
	// tag must track the evolving contents.
	cur := blocks[2]
	for round := 0; round < 5; round++ {
		next := append([]byte(nil), cur...)
		next[round] ^= 0xA5
		tag = m.Update(tag, 2, cur, next)
		cur = next
		blocks[2] = cur
		if !m.Verify(tag, blocks) {
			t.Fatalf("round %d: tag no longer verifies", round)
		}
		wantStamp := byte(0)
		if round%2 == 0 {
			wantStamp = 1 << 2
		}
		if m.Stamps(tag)&(1<<2) != wantStamp {
			t.Fatalf("round %d: stamp bit = %08b", round, m.Stamps(tag))
		}
	}
}

// TestXorMACReplayAttackOnePredictedValue reproduces the first attack of
// §5.5: during write-back the old value is read from memory *unchecked*;
// the adversary answers with the (correctly predicted) new value and drops
// the write, leaving the old value in memory. Without per-block timestamps
// the old and new terms cancel and stale data verifies; with them the
// attack is detected.
func TestXorMACReplayAttackOnePredictedValue(t *testing.T) {
	dOld := macBlocks(1, 64, 1)[0]
	dNew := macBlocks(1, 64, 2)[0]

	for _, stamped := range []bool{false, true} {
		m := NewXorMAC(MD5{}, []byte("key"))
		m.Timestamps = stamped
		tag := m.Compute([][]byte{dOld}, 0)
		// Honest processor updates the tag; adversary's unchecked read
		// returned dNew (the prediction) instead of dOld.
		tag = m.Update(tag, 0, dNew, dNew)
		// Memory still holds dOld. Does it verify?
		passed := m.Verify(tag, [][]byte{dOld})
		if stamped && passed {
			t.Error("timestamps enabled: stale value verified (attack succeeded)")
		}
		if !stamped && !passed {
			t.Error("timestamps disabled: attack should succeed, demonstrating the vulnerability")
		}
	}
}

// TestXorMACInjectionAttackUnchangedValue reproduces the second attack of
// §5.5: the written-back value equals the old one, and the adversary lies
// at the unchecked read with a value of its choosing, which then verifies
// from memory — unless timestamps are in the terms.
func TestXorMACInjectionAttackUnchangedValue(t *testing.T) {
	dOld := macBlocks(1, 64, 1)[0]
	evil := macBlocks(1, 64, 66)[0]

	for _, stamped := range []bool{false, true} {
		m := NewXorMAC(MD5{}, []byte("key"))
		m.Timestamps = stamped
		tag := m.Compute([][]byte{dOld}, 0)
		// Write-back of an unchanged value; the unchecked read returns the
		// adversary's chosen block.
		tag = m.Update(tag, 0, evil, dOld)
		// The adversary stores its block in memory.
		passed := m.Verify(tag, [][]byte{evil})
		if stamped && passed {
			t.Error("timestamps enabled: injected value verified (attack succeeded)")
		}
		if !stamped && !passed {
			t.Error("timestamps disabled: attack should succeed, demonstrating the vulnerability")
		}
	}
}

func TestXorMACMaxBlocks(t *testing.T) {
	m := NewXorMAC(MD5{}, []byte("key"))
	blocks := macBlocks(MaxMACBlocks, 16, 4)
	tag := m.Compute(blocks, 0xFF)
	if !m.Verify(tag, blocks) {
		t.Error("8-block tag does not verify")
	}
	defer func() {
		if recover() == nil {
			t.Error("Compute over 9 blocks did not panic")
		}
	}()
	m.Compute(macBlocks(9, 16, 4), 0)
}

func TestXorMACKeySeparation(t *testing.T) {
	blocks := macBlocks(2, 64, 5)
	t1 := NewXorMAC(MD5{}, []byte("k1")).Compute(blocks, 0)
	t2 := NewXorMAC(MD5{}, []byte("k2")).Compute(blocks, 0)
	if t1 == t2 {
		t.Error("different keys produced identical tags")
	}
	if NewXorMAC(MD5{}, []byte("k2")).Verify(t1, blocks) {
		t.Error("tag verified under the wrong key")
	}
}
