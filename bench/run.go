package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"
)

// system is the persisted thing a run checkpoints, closes and recovers: the
// service stack behind its client, or sim-paper's functional machine with
// its persist.Store (the single-machine path).
type system interface {
	target
	checkpoint() error
	// tamper flips one stored byte of w's stripe behind the system's back
	// and demands that the next read of it is refused as a violation.
	tamper(w *worker) error
	close() error
}

// opener builds a system on dir: fresh when nothing was sealed there,
// otherwise restored from the last sealed epoch and re-verified in full,
// and refused unless it comes up clean. The duration is that of the build
// or the recovery alone.
type opener func(dir string) (system, time.Duration, error)

// load is the foreground work of a workload, what the slices are made of:
// service batches through the system's client, or sim-paper's timing sweeps
// beside its functional machine. d is the driver bound to the system.
type load interface {
	warm(d *driver)            // the fixed-count warm-up, inside set-up
	slice(d *driver)           // one fixed-count slice, its batch times recorded
	lats(d *driver) [][]uint32 // every worker's batch times so far
	sliceOps() float64
	// round is the traffic a barrier checkpoint seals when the slices put
	// none into the system.
	round(d *driver)
	// simulated reports sim_cycles_per_op, sim_overhead_x and
	// extra_reads_per_miss over the count window; win is the system's
	// counters over it.
	simulated(r *report, win simCounters) error
}

// runUntraced is one end-to-end run of any workload.
func runUntraced(wl *workload, p params, seed uint64, seconds float64, outDir string) (*report, error) {
	r := newReport(wl, seed, false)
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r.meta["persist_fs"] = fsName(dir)

	sp := wl.systemParams(p)
	open := wl.opener(sp)
	ld := wl.load(p, seed, seconds)

	// One set-up: build, listen, dial, seeded preload of the whole span,
	// Verify, fixed-count warm-up.
	var setups []float64
	setUp := func(home string, latCap int) (system, prepared, error) {
		t0 := time.Now()
		sys, _, err := open(home)
		if err != nil {
			return nil, prepared{}, err
		}
		pr := prepare(sys, wl, sp, seed, latCap)
		ld.warm(pr.d)
		setups = append(setups, time.Since(t0).Seconds())
		return sys, pr, nil
	}
	home := filepath.Join(dir, "live")
	sys, pr, err := setUp(home, latCap(wl, p, seconds))
	if err != nil {
		return nil, err
	}
	d := pr.d
	// setup_s is the median of setupReps set-ups. The others happen at slice
	// barriers a third and two thirds of the way through the measured
	// phase, on a directory of their own, so that one burst of interference
	// from the host cannot hit them all.
	var serr error
	setUpAgain := func() {
		side := filepath.Join(dir, fmt.Sprint("setup", len(setups)))
		s2, pr2, err := setUp(side, 0)
		if err == nil {
			r.tally.add(pr2.d.tally())
			err = errors.Join(s2.close(), os.RemoveAll(side))
		}
		if serr == nil {
			serr = err
		}
	}

	// Measured phase. Checkpoints and recovery probes happen at slice
	// barriers all through it, for the same reason.
	var (
		closed         simCounters
		storedInWindow uint64
		ckpts, recs    []float64
		snap           = filepath.Join(dir, "snapshot")
	)
	ckpt := func() { ckpts = append(ckpts, float64(timedCheckpoint(sys, &r.tally))/ms) }
	recoverOn := func(dir string) system {
		re, took, err := open(dir)
		r.tally.check(err)
		if err != nil {
			return nil
		}
		recs = append(recs, float64(took)/ms)
		return re
	}
	m := measure(wl, p, seconds, ld.sliceOps(), func() {
		ld.slice(d)
		if wl.ckptOnClock {
			ckpt()
		}
	}, func() [][]uint32 { return ld.lats(d) }, func(n int, spent time.Duration) {
		if !wl.ckptOnClock && n%wl.ckptEvery == 0 {
			ld.round(d)
			ckpt()
		}
		if n == wl.ckptEvery && serr == nil {
			// The first sealed epoch, set aside: the recovery probes
			// recover this copy while the live system runs on.
			serr = copyTree(home, snap)
		}
		if n%wl.recoverEvery == 0 && n >= wl.ckptEvery && serr == nil {
			if re := recoverOn(snap); re != nil {
				r.tally.check(re.close())
			}
		}
		if n == wl.countSlices {
			closed, storedInWindow = counters(sys), d.stored()
		}
		if k := len(setups); k < p.setupReps && spent.Seconds() >= seconds*float64(k)/float64(p.setupReps) {
			setUpAgain()
		}
	})
	for len(setups) < p.setupReps && serr == nil {
		setUpAgain()
	}
	if serr != nil {
		return nil, serr
	}
	r.set("setup_s", median(setups))
	r.info("setups", "%d, fastest %.3f s, slowest %.3f s", len(setups), quantile(setups, 0), quantile(setups, 1))
	m.report(r, ld.lats(d))
	r.tally.check(sys.verify())
	if rejected := counters(sys).rejected; rejected > 0 {
		r.tally.fail(rejected, errors.New("service shed batches with 429"))
	}

	// The count metrics cover the part of the run whose op count is fixed:
	// set-up and the first countSlices slices, with their checkpoints.
	r.set("write_amp", ratio(float64(closed.persistBytes), float64(storedInWindow)))
	if err := ld.simulated(r, closed.sub(pr.open)); err != nil {
		return nil, err
	}

	// A last checkpoint, then close and recover the live directory: the
	// whole image is re-verified, and every byte is compared with the
	// mirrors. The last recovered system takes the tamper probe.
	ckpt()
	if err := sys.close(); err != nil {
		return nil, err
	}
	for i := 0; i < p.recoveries; i++ {
		re := recoverOn(home)
		if re == nil {
			continue
		}
		d.bind(re)
		d.compare()
		if i == p.recoveries-1 {
			r.tally.check(re.tamper(d.workers[0]))
		}
		if err := re.close(); err != nil {
			return nil, err
		}
	}
	durability(r, ckpts, recs)
	r.tally.add(d.tally())
	return r, nil
}

// timedCheckpoint seals one epoch and returns its wall time.
func timedCheckpoint(sys system, t *tally) time.Duration {
	t0 := time.Now()
	err := sys.checkpoint()
	d := time.Since(t0)
	t.check(err)
	return d
}

// copyTree copies the regular files under src to the same places under dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if e.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
}
