package hashalg

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
)

func allAlgorithms() []Algorithm { return []Algorithm{MD5{}, SHA1{}, SHA256{}, FNV128{}} }

// TestAppendSumMatchesSum checks the two entry points agree on arbitrary
// inputs and arbitrary destination prefixes.
func TestAppendSumMatchesSum(t *testing.T) {
	for _, a := range allAlgorithms() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			f := func(prefix, data []byte) bool {
				got := a.AppendSum(append([]byte(nil), prefix...), data)
				want := append(append([]byte(nil), prefix...), a.Sum(data)...)
				return bytes.Equal(got, want)
			}
			if err := quick.Check(f, nil); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestAppendSumNoAlloc asserts the append path allocates nothing once the
// destination has capacity — the contract the integrity engines' scratch
// buffers rely on.
func TestAppendSumNoAlloc(t *testing.T) {
	data := make([]byte, 64)
	for _, a := range allAlgorithms() {
		dst := make([]byte, 0, a.Size())
		allocs := testing.AllocsPerRun(100, func() {
			dst = a.AppendSum(dst[:0], data)
		})
		if allocs != 0 {
			t.Errorf("%s: AppendSum allocated %.1f times per call, want 0", a.Name(), allocs)
		}
	}
}

// TestAppendSumFreshDst checks Sum's freshly-allocated promise holds when
// built on AppendSum: successive results must not alias.
func TestAppendSumFreshDst(t *testing.T) {
	for _, a := range allAlgorithms() {
		d1 := a.Sum([]byte("first"))
		d2 := a.Sum([]byte("second"))
		save := append([]byte(nil), d1...)
		copy(d2, make([]byte, len(d2))) // clobber the second digest
		if !bytes.Equal(d1, save) {
			t.Errorf("%s: Sum results alias each other", a.Name())
		}
	}
}

// TestAlgorithmConcurrentUse hammers one Algorithm value from many
// goroutines at once — the concurrency-safety requirement the interface
// documents, and what the parallel sweep engine depends on when worker
// machines share stateless algorithm values.
func TestAlgorithmConcurrentUse(t *testing.T) {
	const (
		goroutines = 16
		iters      = 200
	)
	inputs := make([][]byte, 8)
	for i := range inputs {
		inputs[i] = bytes.Repeat([]byte{byte(i + 1)}, 32+i*17)
	}
	for _, a := range allAlgorithms() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			want := make([][]byte, len(inputs))
			for i, in := range inputs {
				want[i] = a.Sum(in)
			}
			var wg sync.WaitGroup
			errs := make(chan string, goroutines)
			for g := 0; g < goroutines; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					dst := make([]byte, 0, a.Size())
					for i := 0; i < iters; i++ {
						k := (g + i) % len(inputs)
						dst = a.AppendSum(dst[:0], inputs[k])
						if !bytes.Equal(dst, want[k]) {
							select {
							case errs <- a.Name() + ": concurrent AppendSum diverged":
							default:
							}
							return
						}
						if !bytes.Equal(a.Sum(inputs[k]), want[k]) {
							select {
							case errs <- a.Name() + ": concurrent Sum diverged":
							default:
							}
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Error(e)
			}
		})
	}
}
