package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"time"

	"memverify/internal/core"
	"memverify/internal/integrity"
	"memverify/internal/persist"
	"memverify/internal/sweep"
	"memverify/internal/telemetry"
)

// simTotals accumulates the simulated counts of one scheme on one
// benchmark over the count window.
type simTotals struct {
	cycles, instr, extraReads, l2Misses uint64
}

// cpi is simulated cycles per instruction, the reciprocal of the paper's IPC.
func (t simTotals) cpi() float64 { return ratio(float64(t.cycles), float64(t.instr)) }

type simKey struct {
	scheme core.Scheme
	bench  string
}

// simRunner runs sweep points on the workers and checks each result.
type simRunner struct {
	p      params
	lat    [][]uint32 // per worker, point wall times in ns
	totals map[simKey]simTotals
	tally
	mu sync.Mutex
}

// points runs cfgs across the workers, worker w taking every points[i] with
// i%workers == w through a serial sweep pool, so that a point's wall time
// is observable. Results come back in input order.
func (s *simRunner) points(cfgs []core.Config, record bool) []core.Metrics {
	out := make([]core.Metrics, len(cfgs))
	var wg sync.WaitGroup
	for w := 0; w < s.p.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pool := sweep.New(1)
			for i := w; i < len(cfgs); i += s.p.workers {
				t0 := time.Now()
				mts, err := pool.Run(cfgs[i:i+1], nil)
				d := time.Since(t0)
				ops := cfgs[i].Warmup + cfgs[i].Instructions
				if err == nil {
					out[i] = mts[0]
					err = checkPoint(cfgs[i], mts[0])
				}
				s.mu.Lock()
				s.attempted += ops
				if err != nil {
					s.fail(ops, err)
				}
				s.mu.Unlock()
				if record && len(s.lat[w]) < cap(s.lat[w]) {
					s.lat[w] = append(s.lat[w], uint32(min(d.Nanoseconds(), 1<<32-1)))
				}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// checkPoint is what can be said of one timing point without a reference:
// it ran its budget, it raised no violation, and its rates are numbers.
func checkPoint(cfg core.Config, mt core.Metrics) error {
	switch {
	case mt.Result.Instructions < cfg.Instructions:
		return fmt.Errorf("%s/%s: ran %d of %d instructions", cfg.Benchmark.Name, cfg.Scheme, mt.Result.Instructions, cfg.Instructions)
	case mt.Violations != 0:
		return fmt.Errorf("%s/%s: %d violations on a clean run", cfg.Benchmark.Name, cfg.Scheme, mt.Violations)
	case !(mt.IPC > 0) || math.IsInf(mt.IPC, 0):
		return fmt.Errorf("%s/%s: IPC %v", cfg.Benchmark.Name, cfg.Scheme, mt.IPC)
	}
	return nil
}

// sweepOnce runs sweep k and checks the ordering the paper's result rests
// on: verification never speeds a benchmark up, and caching tree nodes never
// does worse than walking to the root.
func (s *simRunner) sweepOnce(seed uint64, k int, record, count bool) []core.Metrics {
	cfgs := sweepConfigs(s.p, seed, k)
	mts := s.points(cfgs, record)
	ipc := map[simKey]float64{}
	for i, cfg := range cfgs {
		key := simKey{cfg.Scheme, cfg.Benchmark.Name}
		ipc[key] = mts[i].IPC
		if count {
			t := s.totals[key]
			t.cycles += mts[i].Result.Cycles
			t.instr += mts[i].Result.Instructions
			t.extraReads += mts[i].IntegrityStats.ExtraBlockReads
			t.l2Misses += mts[i].L2DataMisses
			s.totals[key] = t
		}
	}
	for _, b := range simBenches {
		naive, c, base := ipc[simKey{core.SchemeNaive, b}], ipc[simKey{core.SchemeCached, b}], ipc[simKey{core.SchemeBase, b}]
		if naive > c || naive > base {
			s.check(fmt.Errorf("sweep %d, %s: IPC naive %.4f exceeds c %.4f or base %.4f", k, b, naive, c, base))
		}
	}
	return mts
}

func sweepOps(p params) float64 {
	return float64(len(simSchemes)*len(simBenches)) * float64(p.simWarmup+p.simInstr)
}

// simLoad is the foreground of sim-paper: sweeps of ten timing points. A
// batch is one point, a slice is sliceBatches sweeps.
type simLoad struct {
	s      *simRunner
	wl     *workload
	seed   uint64
	k      int            // sweeps measured so far
	warmed []core.Metrics // the last warm-up sweep's results
}

func newSimLoad(wl *workload, p params, seed uint64, seconds float64) *simLoad {
	s := &simRunner{p: p, totals: map[simKey]simTotals{}}
	for w := 0; w < p.workers; w++ {
		s.lat = append(s.lat, make([]uint32, 0, latCap(wl, p, seconds)*len(simSchemes)*len(simBenches)/p.workers+1))
	}
	return &simLoad{s: s, wl: wl, seed: seed}
}

func (l *simLoad) warm(*driver) {
	for k := 0; k < l.wl.warmBatches; k++ {
		l.warmed = l.s.sweepOnce(l.seed, k, false, false)
	}
}

func (l *simLoad) slice(*driver) {
	for i := 0; i < l.wl.sliceBatches; i++ {
		mts := l.s.sweepOnce(l.seed, l.k, true, l.k < l.wl.countSlices*l.wl.sliceBatches)
		if l.k == l.wl.warmBatches-1 {
			// The last warm-up sweep ran the same configurations: a
			// deterministic simulator must repeat it exactly.
			for j := range mts {
				if mts[j].Result.Cycles != l.warmed[j].Result.Cycles {
					l.s.check(fmt.Errorf("sweep %d point %d: %d cycles, %d when first run", l.k, j, mts[j].Result.Cycles, l.warmed[j].Result.Cycles))
				}
			}
		}
		l.k++
	}
}

func (l *simLoad) lats(*driver) [][]uint32 { return l.s.lat }
func (l *simLoad) sliceOps() float64       { return float64(l.wl.sliceBatches) * sweepOps(l.s.p) }

// round drives the functional machine with svc-miss's byte traffic, so that
// the checkpoint that follows has something to seal.
func (l *simLoad) round(d *driver) { d.run(l.s.p.roundBatches, false, false) }

// simulated reads the paper's numbers off the c and base points of the
// count window's sweeps.
func (l *simLoad) simulated(r *report, _ simCounters) error {
	var c simTotals
	logSum := 0.0
	for _, b := range simBenches {
		tc, tb := l.s.totals[simKey{core.SchemeCached, b}], l.s.totals[simKey{core.SchemeBase, b}]
		c.cycles += tc.cycles
		c.instr += tc.instr
		c.extraReads += tc.extraReads
		c.l2Misses += tc.l2Misses
		logSum += math.Log(ratio(tc.cpi(), tb.cpi()))
	}
	r.set("sim_cycles_per_op", c.cpi())
	r.set("sim_overhead_x", math.Exp(logSum/float64(len(simBenches))))
	r.set("extra_reads_per_miss", ratio(float64(c.extraReads), float64(c.l2Misses)))
	r.tally.add(l.s.tally)
	return nil
}

// machineSystem is sim-paper's persisted system: one functional machine
// checkpointed through persist.MachineSource and recovered through
// persist.RecoverMachine, the single-machine path.
type machineSystem struct {
	machineTarget
	ps     *persist.Store
	closed func(root []byte)
}

// openMachine is the opener of sim-paper. It remembers the root of every
// system it closed, and refuses a recovery whose root is another.
func openMachine(p params) opener {
	cfg := shardMachineConfig(p, core.SchemeCached)
	roots := map[string][]byte{}
	return func(dir string) (system, time.Duration, error) {
		opts := persist.Options{Dir: filepath.Join(dir, "machine"), AnchorPath: filepath.Join(dir, "anchors", "machine.anchor")}
		t0 := time.Now()
		m, rec, err := persist.RecoverMachine(opts, cfg)
		took := time.Since(t0)
		switch {
		case err != nil:
			return nil, 0, err
		case rec.Outcome != persist.OutcomeFresh && rec.Outcome != persist.OutcomeClean:
			return nil, 0, fmt.Errorf("recovery of %s: outcome %s: %s", dir, rec.Outcome, rec.Detail)
		case roots[dir] != nil && !bytes.Equal(m.Root(), roots[dir]):
			return nil, 0, fmt.Errorf("recovery of %s: the root differs from the root sealed before close", dir)
		}
		ps, err := persist.Open(opts)
		if err != nil {
			return nil, 0, err
		}
		t := machineTarget{ms: []*core.Machine{m}, span: m.ProgSpan()}
		return &machineSystem{t, ps, func(root []byte) { roots[dir] = root }}, took, nil
	}
}

func (s *machineSystem) fill(reg *telemetry.Registry) {
	s.machineTarget.fill(reg)
	st := s.ps.Stats()
	st.Fill(reg)
}

func (s *machineSystem) checkpoint() error {
	_, err := s.ps.Checkpoint(persist.MachineSource{M: s.ms[0]})
	return err
}

func (s *machineSystem) close() error {
	s.closed(s.ms[0].Root())
	return s.ps.Close()
}

func (s *machineSystem) tamper(*worker) error { return tamperMachine(s.ms[0]) }

// tamperMachine is the tamper probe on a bare machine.
func tamperMachine(m *core.Machine) error {
	m.EvictProtected()
	m.Adversary().Corrupt(m.ProgAddr(tamperOff), 0xFF)
	var b [1]byte
	err := m.LoadBytes(tamperOff, b[:])
	var v *integrity.ViolationError
	if !errors.As(err, &v) {
		return fmt.Errorf("tampered byte was served (read returned %v)", err)
	}
	return nil
}
