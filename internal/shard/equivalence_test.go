package shard

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"memverify/internal/core"
)

// TestCrossShardEquivalence replays one operation log against a sharded
// store and a single reference machine for every scheme a store serves
// and every shard count
// (hash mode full, the only one a store runs): per-operation results and
// the final region contents must be byte-identical regardless of how the
// region is partitioned. Offsets stay below both spans so the two address
// maps never alias differently.
func TestCrossShardEquivalence(t *testing.T) {
	schemes := []core.Scheme{core.SchemeNaive, core.SchemeCached, core.SchemeMulti}
	counts := []int{1, 2, 8}
	for _, scheme := range schemes {
		for _, n := range counts {
			t.Run(fmt.Sprintf("%s/full/n%d", scheme, n), func(t *testing.T) {
				cfg := storeCfg(scheme)
				s, err := New(Config{Machine: cfg, Shards: n})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				ref, err := core.NewMachine(cfg)
				if err != nil {
					t.Fatal(err)
				}

				span := s.Span()
				if rs := ref.ProgSpan(); rs < span {
					span = rs
				}
				rng := rand.New(rand.NewSource(7))
				for op := 0; op < 150; op++ {
					length := 1 + rng.Intn(300)
					off := rng.Uint64() % (span - uint64(length))
					if rng.Intn(2) == 0 {
						p := make([]byte, length)
						rng.Read(p)
						if err := s.StoreBytes(off, p); err != nil {
							t.Fatalf("op %d: store %v", op, err)
						}
						if err := ref.StoreBytes(off, p); err != nil {
							t.Fatalf("op %d: ref store %v", op, err)
						}
						continue
					}
					got := make([]byte, length)
					want := make([]byte, length)
					if err := s.LoadBytes(off, got); err != nil {
						t.Fatalf("op %d: load %v", op, err)
					}
					if err := ref.LoadBytes(off, want); err != nil {
						t.Fatalf("op %d: ref load %v", op, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("op %d: read at %d diverged", op, off)
					}
				}

				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				ref.Flush()
				got := make([]byte, span)
				want := make([]byte, span)
				if err := s.LoadBytes(0, got); err != nil {
					t.Fatal(err)
				}
				if err := ref.LoadBytes(0, want); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("final contents diverge at %d (shard %d)", i, s.ShardFor(uint64(i)))
						}
					}
				}
				if vs := s.Violations(); len(vs) != 0 {
					t.Fatalf("clean replay produced %d violations", len(vs))
				}
			})
		}
	}
}

// TestConcurrentSubmittersConverge drives the store from many goroutines
// over disjoint stripes, then checks the contents against each stripe's
// mirror — the pipelined path must end at the same bytes the serial
// bookkeeping predicts.
func TestConcurrentSubmittersConverge(t *testing.T) {
	s, err := New(Config{Machine: storeCfg(core.SchemeCached), Shards: 4, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const workers = 8
	span := s.Span()
	stripe := span / workers
	mirrors := make([][]byte, workers)
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			base := uint64(w) * stripe
			mirror := make([]byte, stripe)
			mirrors[w] = mirror
			rng := rand.New(rand.NewSource(int64(100 + w)))
			b := s.NewBatch()
			for op := 0; op < 60; op++ {
				length := 1 + rng.Intn(256)
				off := rng.Uint64() % (stripe - uint64(length))
				p := make([]byte, length)
				rng.Read(p)
				b.Store(base+off, p)
				copy(mirror[off:], p)
				if op%10 == 9 { // pipeline in bursts of 10
					if err := b.Wait(); err != nil {
						done <- err
						return
					}
				}
			}
			done <- b.Wait()
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := s.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		got := make([]byte, stripe)
		if err := s.LoadBytes(uint64(w)*stripe, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, mirrors[w]) {
			t.Fatalf("stripe %d diverged from its mirror", w)
		}
	}
}
