package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"time"

	"memverify/internal/cache"
	"memverify/internal/core"
	"memverify/internal/hashalg"
	"memverify/internal/mem"
	"memverify/internal/service"
	"memverify/internal/service/client"
	"memverify/internal/sweep"
	"memverify/internal/trace"
)

// The probes time single calls into public functions of one layer each.
// They do not depend on the workload, so a traced run of any workload
// reports them; they locate a change that the replays only notice.

// timeMedian is the median wall time in ns of n calls of f.
func timeMedian(n int, f func()) float64 {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
	}
	return median(ds)
}

// timeLoop is for calls too short to time alone: the median over reps of
// the mean time in ns of iters calls.
func timeLoop(reps, iters int, f func(i int)) float64 {
	return timeMedian(reps, func() {
		for i := 0; i < iters; i++ {
			f(i)
		}
	}) / float64(iters)
}

// machineProbes times the byte paths, the whole-block path and the state
// image of one functional machine (warm, as the replay left it).
func machineProbes(r *report, p params, m *core.Machine) {
	const hot = 4096
	iters := 200/p.probeScale + 2
	buf := make([]byte, hot)
	r.set("core.load_ns_per_byte", timeLoop(5, iters, func(int) { _ = m.LoadBytes(0, buf) })/hot)
	// A span that starts off a block boundary and ends before the next
	// whole block keeps StoreBytes on its byte path.
	bs := m.Cfg.L2Block
	r.set("core.store_ns_per_byte", timeLoop(5, iters*8, func(i int) { _ = m.StoreBytes(uint64(i%(hot/bs)*bs+1), buf[:bs-1]) })/float64(bs-1))
	r.set("core.fullblock_store_ns", timeLoop(5, iters*8, func(i int) { _ = m.StoreBytes(uint64(i%(hot/bs)*bs), buf[:bs]) }))

	var img, root []byte
	r.set("persist.save_state_ms", timeMedian(3, func() { img, root, _ = m.SaveState() })/ms)
	r.set("persist.restore_state_ms", timeMedian(3, func() { _ = m.RestoreState(img, root) })/ms)
}

// probes runs the workload-independent probes.
func probes(r *report, wl *workload, p params, seed uint64) error {
	if err := codecProbes(r, wl, p, seed); err != nil {
		return err
	}
	if err := nullRTT(r, p); err != nil {
		return err
	}

	chunk := make([]byte, 64)
	(&rng{s: seed}).fill(chunk)
	for _, name := range []string{"fnv128", "md5", "sha1"} {
		alg, err := hashalg.New(name)
		if err != nil {
			return err
		}
		dst := make([]byte, 0, alg.Size())
		r.set("hashalg.ns_per_chunk."+name, timeLoop(5, 20000/p.probeScale+2, func(int) { dst = alg.AppendSum(dst[:0], chunk) }))
	}
	if batch := r.values["core.batch_us"]; batch > 0 {
		perBatch := r.values["hashalg.ops_per_op"] * float64(wl.batchOps) * r.values["hashalg.ns_per_chunk.fnv128"]
		r.set("hashalg.time_share", perBatch/(batch*us))
	}

	// The simulated L2 as a data structure: hits, and fills that evict.
	cfg := machineConfig(p, core.SchemeCached)
	l2 := cache.New(cache.Config{Name: "probe", Size: cfg.L2Size, Ways: cfg.L2Ways, BlockSize: cfg.L2Block, DataBearing: true})
	lines := cfg.L2Size / cfg.L2Block
	for i := 0; i < lines; i++ {
		l2.Fill(uint64(i*cfg.L2Block), cache.Data, chunk)
	}
	n := 50000/p.probeScale + 2
	r.set("cache.read_hit_ns", timeLoop(5, n, func(i int) { l2.Read(uint64(i%lines*cfg.L2Block), cache.Data) }))
	next := lines
	r.set("cache.fill_evict_ns", timeLoop(5, n, func(int) {
		l2.Fill(uint64(next*cfg.L2Block), cache.Data, chunk)
		next++
	}))

	// Untrusted memory: block reads and writes over a populated span.
	sparse := mem.NewSparse()
	blocks := int(p.protected) / cfg.L2Block
	for i := 0; i < blocks; i++ {
		sparse.Write(uint64(i*cfg.L2Block), chunk)
	}
	pick := rng{s: seed}
	r.set("mem.read_block_ns", timeLoop(5, n, func(int) { sparse.Read(pick.intn(uint64(blocks))*uint64(cfg.L2Block), chunk) }))
	r.set("mem.write_block_ns", timeLoop(5, n, func(int) { sparse.Write(pick.intn(uint64(blocks))*uint64(cfg.L2Block), chunk) }))

	// A one-byte load that has to come from external memory, per scheme.
	for _, scheme := range simSchemes[1:] {
		m, err := core.NewMachine(shardMachineConfig(p, scheme))
		if err != nil {
			return err
		}
		span := m.ProgSpan()
		var b [1]byte
		reads := make([]float64, 20/min(p.probeScale, 10)+1)
		for i := range reads {
			m.EvictProtected()
			off := pick.intn(span)
			t0 := time.Now()
			err := m.LoadBytes(off, b[:])
			reads[i] = float64(time.Since(t0))
			r.tally.check(err)
		}
		r.set("integrity.cold_read_us."+string(scheme), median(reads)/us)
	}
	return simProbes(r, p, seed)
}

// codecProbes times the MVB1/MVR1 codec on one batch of the workload's
// stream, on each side of the wire.
func codecProbes(r *report, wl *workload, p params, seed uint64) error {
	g := newGen(wl, seed, 0, phaseProbe, p.protected/uint64(p.workers))
	ops := make([]service.Op, wl.batchOps)
	for i := range ops {
		o := g.next()
		ops[i] = service.Op{Write: o.write, Off: o.off, Data: make([]byte, o.n)}
	}
	n := float64(len(ops))
	iters := 2000/p.probeScale + 2
	var body []byte
	r.set("client.encode_req_ns_per_op", timeLoop(5, iters, func(int) { body = service.EncodeRequest(ops) })/n)
	var derr error
	r.set("service.decode_req_ns_per_op", timeLoop(5, iters, func(int) {
		if _, err := service.DecodeRequest(bytes.NewReader(body), 0, 0); err != nil {
			derr = err
		}
	})/n)
	var resp bytes.Buffer
	r.set("service.encode_resp_ns_per_op", timeLoop(5, iters, func(int) {
		resp.Reset()
		if err := service.EncodeResponse(&resp, ops); err != nil {
			derr = err
		}
	})/n)
	r.set("client.decode_resp_ns_per_op", timeLoop(5, iters, func(int) {
		if err := service.DecodeResponse(bytes.NewReader(resp.Bytes()), ops); err != nil {
			derr = err
		}
	})/n)
	r.tally.check(derr)
	return nil
}

// nullRTT is the floor under client.wait_us that the repository does not
// own: the same client and transport against a handler that does nothing.
func nullRTT(r *report, p params) error {
	listing, err := json.Marshal([]service.TenantInfo{{Name: tenantName, Shards: 1, Span: 1 << 20, ShardSpan: 1 << 20}})
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/tenants", func(w http.ResponseWriter, _ *http.Request) { w.Write(listing) }) //nolint:errcheck // probe
	mux.HandleFunc("/v1/t/"+tenantName+"/batch", func(w http.ResponseWriter, req *http.Request) {
		io.Copy(io.Discard, req.Body)           //nolint:errcheck // probe
		w.Write([]byte("MVR1\x01\x00\x00\x00")) //nolint:errcheck // one write op, no payload
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	c, err := client.Dial(ln.Addr().String(), tenantName)
	if err != nil {
		return err
	}
	defer c.Close()
	b := c.NewBatch()
	var werr error
	r.set("client.null_rtt_us", timeMedian(3000/p.probeScale+3, func() {
		b.Store(0, []byte{1})
		if err := b.Wait(); err != nil {
			werr = err
		}
	})/us)
	if werr != nil {
		return fmt.Errorf("null round trip: %w", werr)
	}
	return nil
}

// simProbes times the simulator: instructions per host second by scheme,
// the trace generator alone, and what the second sweep worker buys.
func simProbes(r *report, p params, seed uint64) error {
	cfgs := sweepConfigs(p, seed, 0)
	ipc := map[simKey]float64{}
	for _, cfg := range cfgs {
		var mt core.Metrics
		var err error
		d := timeMedian(3, func() { mt, err = core.Run(cfg) })
		if err != nil {
			return err
		}
		ipc[simKey{cfg.Scheme, cfg.Benchmark.Name}] = mt.IPC
		if cfg.Benchmark.Name == simBenches[0] {
			r.set("cpu.sim_instr_per_s."+string(cfg.Scheme), float64(cfg.Warmup+cfg.Instructions)/(d/1e9))
		}
	}
	for _, scheme := range simSchemes[1:] {
		logSum := 0.0
		for _, b := range simBenches {
			logSum += math.Log(ipc[simKey{scheme, b}] / ipc[simKey{core.SchemeBase, b}])
		}
		r.set("sim.ipc_ratio."+string(scheme), math.Exp(logSum/float64(len(simBenches))))
	}

	gen := trace.NewSynthetic(cfgs[0].Benchmark, seed)
	var ins trace.Instruction
	r.set("trace.next_ns", timeLoop(5, 200000/p.probeScale+2, func(int) { gen.Next(&ins) }))

	var serr error
	run := func(workers int) float64 {
		pool := sweep.New(workers)
		return timeMedian(3, func() {
			if _, err := pool.Run(cfgs, nil); err != nil {
				serr = err
			}
		})
	}
	serial, parallel := run(1), run(p.workers)
	r.set("sweep.parallel_eff", serial/(float64(p.workers)*parallel))
	return serr
}
