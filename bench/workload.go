package main

import (
	"memverify/internal/core"
	"memverify/internal/trace"
)

// workload is one set of inputs. Op counts are per worker. A slice is the
// unit the measured phase repeats until the time budget is spent: its op
// count is fixed, so the simulated counters of a slice depend only on the
// seed, never on how fast the host ran it.
type workload struct {
	name string
	why  string

	sim bool // sim-paper: sweep points instead of service batches

	shape    shape
	region   uint64 // bytes of each stripe the ops touch; 0 = the whole stripe
	maxLen   int    // longest span of an op in bytes
	writePct int
	batchOps int

	sliceBatches int  // batches (sim: sweeps) per slice
	warmBatches  int  // batches (sim: sweeps) of warm-up, inside setup_s
	countSlices  int  // leading slices the count metrics are taken over; always measured
	ckptEvery    int  // a checkpoint (sim: a durability round) at every ckptEvery-th slice barrier
	ckptOnClock  bool // the checkpoint's time counts as the slice's
	recoverEvery int  // a recovery probe at every recoverEvery-th barrier
}

// The op counts were calibrated on the 2-vCPU reference box: a slice takes
// about half a second (svc-log: a quarter of one, and ends in a checkpoint),
// a set-up with its warm-up a little over two. A checkpoint at every barrier
// and a recovery probe at every other one give the fastest tenth of each
// enough samples to be steady. The count windows are sized so that the
// count metrics move by less than half a percent from seed to seed.
var workloads = []*workload{
	{
		name: "svc-miss",
		why: "uniform 1-256 B spans over each 4 MiB stripe (16x the simulated L2), half writes, batch 16: " +
			"every op misses, so core, integrity, hashalg and mem do the work and the wire is amortised 16:1",
		shape: shapeUniform, maxLen: 256, writePct: 50, batchOps: 16,
		sliceBatches: 3000, warmBatches: 11000, countSlices: 4, ckptEvery: 1, recoverEvery: 2,
	},
	{
		name: "svc-hot",
		why: "1-64 B spans over the first 64 KiB of each stripe (fits the L2 with its tree), 90% reads, batch 2: " +
			"the engine idles, so client, codec, admission and the shard queue dominate; bypasses engine changes",
		shape: shapeUniform, region: 64 << 10, maxLen: 64, writePct: 10, batchOps: 2,
		sliceBatches: 12000, warmBatches: 40000, countSlices: 4, ckptEvery: 1, recoverEvery: 2,
	},
	{
		name: "svc-log",
		why: "append log: 80% 64-B-aligned 64-512 B records at a wrapping head (whole-block allocate path), " +
			"20% reads from the trailing 16 KiB, batch 16, a checkpoint after every slice: persist is on the clock",
		shape: shapeLog, maxLen: 256, writePct: 80, batchOps: 16,
		sliceBatches: 1000, warmBatches: 15000, countSlices: 16, ckptEvery: 1, ckptOnClock: true, recoverEvery: 5,
	},
	{
		name: "sim-paper",
		why: "the paper's method: timing simulation of base/naive/c/m/i on swim and mcf through internal/sweep; " +
			"no service layer runs, so only cpu, trace, cache and the engines' timing paths can move it",
		sim:          true,
		sliceBatches: 4, warmBatches: 20, countSlices: 20, ckptEvery: 2, recoverEvery: 4,
		// The durability tail drives a functional machine with svc-miss's
		// byte traffic.
		shape: shapeUniform, maxLen: 256, writePct: 50, batchOps: 16,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// params are the run-shape constants shared by every workload. The smoke
// test shrinks them; the command line does not expose them.
type params struct {
	workers      int    // closed-loop client workers = shards = connections
	protected    uint64 // protected bytes of the tenant
	l2           int    // simulated L2 bytes per shard
	queue        int    // shard queue depth
	setupReps    int    // set-ups per run; setup_s is their median
	maxSlices    int    // bound of the pre-allocated sample buffers, per second of budget
	roundBatches int    // batches per worker of traffic before a checkpoint that follows no slice
	recoveries   int    // recoveries of the live directory after close, each compared byte by byte
	probeScale   int    // divisor of the micro-probe iteration counts

	simWarmup uint64 // sim-paper: instructions per point before counters reset
	simInstr  uint64 // sim-paper: measured instructions per point
}

func defaultParams() params {
	return params{
		workers:      2,
		protected:    8 << 20,
		l2:           256 << 10,
		queue:        64,
		setupReps:    3,
		maxSlices:    12,
		roundBatches: 200,
		recoveries:   2,
		probeScale:   1,
		simWarmup:    50000,
		simInstr:     100000,
	}
}

// tinyParams is the smoke-test shape: the same code paths in well under a
// second per workload.
func tinyParams() params {
	p := defaultParams()
	p.protected = 512 << 10
	p.l2 = 64 << 10
	p.setupReps = 2
	p.roundBatches = 5
	p.probeScale = 200
	p.simWarmup = 500
	p.simInstr = 1000
	return p
}

// tiny returns a copy of w with smoke-test op counts.
func (w *workload) tiny() *workload {
	c := *w
	c.sliceBatches, c.warmBatches, c.countSlices, c.ckptEvery, c.recoverEvery = 20, 10, 2, 1, 2
	if c.sim {
		c.sliceBatches, c.warmBatches = 1, 1
	}
	return &c
}

// machineConfig is the tenant's machine template: memverifyd's defaults
// (scheme c, fnv128, full hashing, record policy). ProtectedBytes is the
// total; the store splits it across shards.
func machineConfig(p params, scheme core.Scheme) core.Config {
	cfg := core.DefaultConfig()
	cfg.Scheme = scheme
	cfg.Benchmark = trace.Uniform("bench", 32<<10)
	cfg.Benchmark.CodeSet = 4 << 10
	cfg.ProtectedBytes = p.protected
	cfg.L2Size = p.l2
	cfg.HashMode = "full"
	cfg.HashAlg = "fnv128"
	cfg.ViolationPolicy = "record"
	cfg.Functional = true
	cfg.ChunkBlocks = 1
	if scheme == core.SchemeMulti || scheme == core.SchemeIncr {
		cfg.ChunkBlocks = 2
	}
	return cfg
}

// shardMachineConfig is the configuration of one shard's machine, as
// shard.New derives it from the tenant's.
func shardMachineConfig(p params, scheme core.Scheme) core.Config {
	cfg := machineConfig(p, scheme)
	cfg.ProtectedBytes /= uint64(p.workers)
	return cfg
}

// systemParams are the parameters of the workload's persisted system:
// sim-paper's is a single machine over the whole protected span.
func (w *workload) systemParams(p params) params {
	if w.sim {
		p.workers = 1
	}
	return p
}

func (w *workload) opener(sp params) opener {
	if w.sim {
		return openMachine(sp)
	}
	return openStack(sp)
}

func (w *workload) load(p params, seed uint64, seconds float64) load {
	if w.sim {
		return newSimLoad(w, p, seed, seconds)
	}
	return svcLoad{wl: w, p: p, seed: seed}
}

var simSchemes = []core.Scheme{core.SchemeBase, core.SchemeNaive, core.SchemeCached, core.SchemeMulti, core.SchemeIncr}
var simBenches = []string{"swim", "mcf"}

// sweepConfigs returns the ten timing points of sweep k: every scheme on
// both benchmarks, seeded from the run seed and the sweep index.
func sweepConfigs(p params, seed uint64, k int) []core.Config {
	cfgs := make([]core.Config, 0, len(simSchemes)*len(simBenches))
	for _, b := range simBenches {
		prof, ok := trace.ByName(b)
		if !ok {
			panic("bench: unknown benchmark profile " + b)
		}
		for _, s := range simSchemes {
			cfg := core.DefaultConfig()
			cfg.Scheme = s
			cfg.Benchmark = prof
			cfg.Warmup = p.simWarmup
			cfg.Instructions = p.simInstr
			cfg.Seed = streamSeed(seed, k, phaseMeasure)
			if s == core.SchemeMulti || s == core.SchemeIncr {
				cfg.ChunkBlocks = 2
			}
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}
