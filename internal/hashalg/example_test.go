package hashalg_test

import (
	"encoding/hex"
	"fmt"

	"memverify/internal/hashalg"
)

// Example computes a one-shot digest with MD5 and SHA-1.
func Example() {
	fmt.Println("md5 ", hex.EncodeToString(hashalg.MD5{}.Sum([]byte("abc"))))
	fmt.Println("sha1", hex.EncodeToString(hashalg.SHA1{}.Sum([]byte("abc"))))
	// Output:
	// md5  900150983cd24fb0d6963f7d28e17f72
	// sha1 a9993e364706816aba3e25717850c26c9cd0d89d
}

// ExampleXorMAC shows the incremental MAC of §5.5: one block of a chunk
// changes and the tag is updated in constant work, with the 1-bit
// timestamp flipping to defeat replay of the unchecked old-value read.
func ExampleXorMAC() {
	mac := hashalg.NewXorMAC(hashalg.MD5{}, []byte("processor key"))
	blockA := make([]byte, 64)
	blockB := make([]byte, 64)
	tag := mac.Compute([][]byte{blockA, blockB}, 0)

	// Write-back of block 0: constant-work update, stamp bit 0 flips.
	newA := append([]byte(nil), blockA...)
	newA[0] = 0xEE
	tag = mac.Update(tag, 0, blockA, newA)

	fmt.Println("verifies new contents:", mac.Verify(tag, [][]byte{newA, blockB}))
	fmt.Println("rejects stale contents:", !mac.Verify(tag, [][]byte{blockA, blockB}))
	fmt.Printf("stamps: %02b\n", mac.Stamps(tag))
	// Output:
	// verifies new contents: true
	// rejects stale contents: true
	// stamps: 01
}
