package main

// The op streams every workload is made of. The generator is the
// benchmark's own (cmd/loadgen is a driver under test, not a dependency)
// and uses its own PRNG, so equal seeds give byte-identical streams on any
// Go version: every simulated counter the benchmark reports depends on it.

// rng is splitmix64.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// intn returns a value in [0, n). The modulo bias is below 2^-40 for every
// n used here.
func (r *rng) intn(n uint64) uint64 { return r.next() % n }

// fill writes the next len(p) stream bytes into p.
func (r *rng) fill(p []byte) {
	for len(p) >= 8 {
		v := r.next()
		p[0], p[1], p[2], p[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		p[4], p[5], p[6], p[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
		p = p[8:]
	}
	if len(p) > 0 {
		v := r.next()
		for i := range p {
			p[i] = byte(v >> (8 * i))
		}
	}
}

// Streams of one run are separated by phase.
const (
	phasePreload = iota
	phaseMeasure
	phaseProbe
)

// streamSeed derives an independent stream for (seed, worker, phase).
func streamSeed(seed uint64, worker, phase int) uint64 {
	r := rng{s: seed ^ uint64(worker+1)<<32 ^ uint64(phase+1)<<48}
	r.next()
	return r.next()
}

type shape int

const (
	shapeUniform shape = iota // uniform random spans over the region
	shapeLog                  // append log: aligned records at a head cursor, reads from the tail
)

const (
	logRecordUnit = 64       // log records are 1..8 units long and unit-aligned
	logReadWindow = 16 << 10 // log reads come from this many bytes behind the head
)

// op is one operation of a stream; off is relative to the worker's stripe,
// and off+n never exceeds the stripe.
type op struct {
	off   uint64
	n     int
	write bool
}

// gen produces one worker's op stream over its own stripe.
type gen struct {
	r        rng
	shape    shape
	region   uint64 // bytes of the stripe the ops touch
	maxLen   int
	writePct uint64
	head     uint64 // shapeLog: next append offset
}

func newGen(w *workload, seed uint64, worker, phase int, stripe uint64) *gen {
	region := w.region
	if region == 0 || region > stripe {
		region = stripe
	}
	return &gen{
		r:        rng{s: streamSeed(seed, worker, phase)},
		shape:    w.shape,
		region:   region,
		maxLen:   w.maxLen,
		writePct: uint64(w.writePct),
	}
}

func (g *gen) next() op {
	write := g.r.intn(100) < g.writePct
	if g.shape == shapeLog {
		if write {
			n := uint64(logRecordUnit) * (1 + g.r.intn(8))
			if g.head+n > g.region {
				g.head = 0
			}
			o := op{off: g.head, n: int(n), write: true}
			g.head += n
			return o
		}
		n := 1 + g.r.intn(uint64(g.maxLen))
		lo := uint64(0)
		if g.head > logReadWindow {
			lo = g.head - logReadWindow
		}
		return op{off: lo + g.r.intn(logReadWindow-n+1), n: int(n)}
	}
	n := 1 + g.r.intn(uint64(g.maxLen))
	return op{off: g.r.intn(g.region - n + 1), n: int(n), write: write}
}
