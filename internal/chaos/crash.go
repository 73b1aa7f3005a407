package chaos

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"memverify/internal/core"
	"memverify/internal/persist"
	"memverify/internal/shard"
	"memverify/internal/trace"
)

// The crash campaign is the kill/restart sibling of the in-memory
// tampering campaign: each injection runs a seeded workload that
// checkpoints through internal/persist, then either kills the simulated
// process at a protocol stage (via persist.FaultFS) or tampers with the
// on-disk state before restart, and asserts the recovery contract —
// every clean kill/restart reproduces the exact pre-crash committed root
// (possibly the earlier epoch when the tear rolled back), and every
// on-disk tampering or rollback/replay attempt is classified a violation.

// Crash injection kinds.
const (
	// CrashKill dies at a seeded protocol stage and restarts: the clean
	// leg. Recovery must NOT report a violation and must reproduce a
	// sealed root bit-exactly.
	CrashKill = "kill"
	// CrashTamperSegment flips one byte of a committed segment file; the
	// checksum layer must refuse it.
	CrashTamperSegment = "tamper-segment"
	// CrashForgeSegment flips one image byte AND recomputes the file
	// checksum — a forgery the crash-consistency layer cannot see. Only
	// the engine's verification walk against the WAL-sealed root catches
	// it: the adversarial leg that separates checksums from integrity.
	CrashForgeSegment = "forge-segment"
	// CrashTruncateWAL chops committed epochs off the log while leaving
	// the newer snapshot in place.
	CrashTruncateWAL = "truncate-wal"
	// CrashStaleSnapshot reinstalls an older, internally valid snapshot
	// over the committed one — the cross-restart replay attack.
	CrashStaleSnapshot = "stale-snapshot"
	// CrashReplayDir reinstalls a byte-exact copy of the ENTIRE older
	// directory — WAL, manifest and segments together — a replay no
	// in-directory check can see (the copy is fully self-consistent).
	// These legs run with persist.Options.AnchorPath pointing at a file
	// outside the directory: the external trusted-storage anchor must
	// classify the replay as a violation.
	CrashReplayDir = "replay-dir"

	// The chain legs commit a base and three deltas over it, then attack
	// the chain recovery has to walk: no link of it is trusted, so each
	// must end as a violation, raised by the decoder, by the walk or by
	// the engine's sweep of the folded image against the sealed root.

	// CrashFlipLink flips one byte of one delta of the chain.
	CrashFlipLink = "flip-link"
	// CrashForgeLink flips one byte of the head delta's line bytes and
	// recomputes the file's checksum.
	CrashForgeLink = "forge-link"
	// CrashDropLink deletes a delta from the middle of the chain.
	CrashDropLink = "drop-link"
	// CrashSubstituteLink installs an older delta in a newer one's place,
	// its labels rewritten and its checksum recomputed so that the chain
	// is well-formed from end to end.
	CrashSubstituteLink = "substitute-link"
	// CrashTruncateBase cuts the chain's base short.
	CrashTruncateBase = "truncate-base"
)

// chainEpochs is how many epochs a chain leg commits: a base and three
// deltas, so that the chain has a head, a middle and a base to attack.
const chainEpochs = 4

// chainLeg reports whether kind attacks a chain of segments.
func chainLeg(kind string) bool {
	switch kind {
	case CrashFlipLink, CrashForgeLink, CrashDropLink, CrashSubstituteLink, CrashTruncateBase:
		return true
	}
	return false
}

// killStages is the protocol-stage rotation for CrashKill legs.
var killStages = []string{
	persist.StageWALWrite,
	persist.StageWALSync,
	persist.StageBetween,
	persist.StageSegWrite,
	persist.StageSegSync,
	persist.StageManifestWrite,
	persist.StageManifestRename,
}

// crashKinds is the per-leg rotation: five kills (cycling through the
// seven stages across legs) for every ten tamper legs.
var crashKinds = []string{
	CrashKill, CrashTamperSegment, CrashKill, CrashForgeSegment,
	CrashKill, CrashTruncateWAL, CrashStaleSnapshot, CrashReplayDir,
	CrashKill, CrashFlipLink, CrashForgeLink,
	CrashKill, CrashDropLink, CrashSubstituteLink, CrashTruncateBase,
}

// CrashConfig configures a crash campaign. The zero value is not usable;
// start from DefaultCrashConfig.
type CrashConfig struct {
	Seed   uint64
	Scheme core.Scheme
	Policy string

	// Injections is the number of kill/tamper legs.
	Injections int

	// Shards selects the persistence source: 1 runs a single machine,
	// >1 runs the sharded concurrent store (per-shard segments, manifest
	// commit, per-shard halt containment on recovery).
	Shards int

	// ProtectedBytes is the TOTAL protected region (split across Shards);
	// L2Size the per-machine cache.
	ProtectedBytes uint64
	L2Size         int

	// WritesPerRound is the number of 64-byte stores before the first
	// checkpoint. Later rounds draw theirs with the leg's generator: up to
	// four times as many before the second checkpoint of a two-epoch leg
	// — on the default footprint a shard's segment stops being a delta
	// and is a base again at about twice as many, so a campaign kills and
	// tampers with both kinds in like numbers — and up to half as many in
	// each round of a chain leg, which must write deltas.
	WritesPerRound int

	// Dir is the scratch root for the per-leg store directories; ""
	// creates a temp dir and removes it afterwards.
	Dir string
}

// DefaultCrashConfig returns a small, fast campaign for scheme.
func DefaultCrashConfig(scheme core.Scheme) CrashConfig {
	return CrashConfig{
		Seed:           1,
		Scheme:         scheme,
		Policy:         "record",
		Injections:     50,
		Shards:         1,
		ProtectedBytes: 16 << 10,
		L2Size:         8 << 10,
		WritesPerRound: 32,
	}
}

// machineCrashConfig builds the per-machine simulator configuration.
func (c CrashConfig) machineCrashConfig() core.Config {
	per := c.ProtectedBytes / uint64(c.Shards)
	cfg := core.DefaultConfig()
	cfg.Scheme = c.Scheme
	cfg.Functional = true
	cfg.HashAlg = "fnv128"
	cfg.ViolationPolicy = c.Policy
	cfg.ProtectedBytes = c.ProtectedBytes
	cfg.L2Size = c.L2Size
	cfg.Benchmark = trace.Uniform("crash", per/2)
	cfg.Benchmark.CodeSet = per / 4
	if c.Scheme == core.SchemeMulti || c.Scheme == core.SchemeIncr {
		cfg.ChunkBlocks = 2
	}
	return cfg
}

// CrashInjection is one leg of a crash campaign.
type CrashInjection struct {
	ID   int    `json:"id"`
	Kind string `json:"kind"`
	// Stage is the kill stage for CrashKill legs, "" otherwise.
	Stage string `json:"stage,omitempty"`
	// Outcome is the recovery classification (persist.Outcome).
	Outcome string `json:"outcome"`
	// Epoch is the epoch recovery restored to.
	Epoch uint64 `json:"epoch"`
	// Detected: a tamper leg classified as a violation.
	Detected bool `json:"detected"`
	// ExactRoot: a clean recovery whose restored roots are byte-identical
	// to the sealed roots of the recovered epoch.
	ExactRoot bool `json:"exact_root"`
	// Bases and Deltas count the segments the leg's store wrote, by kind.
	Bases  int    `json:"bases"`
	Deltas int    `json:"deltas"`
	Detail string `json:"detail,omitempty"`
}

// CrashSummary aggregates a crash campaign.
type CrashSummary struct {
	Total   int `json:"total"`
	Kills   int `json:"kills"`
	Tampers int `json:"tampers"`

	// CleanRecoveries counts kill legs that recovered without a
	// violation AND reproduced the exact sealed root.
	CleanRecoveries int `json:"clean_recoveries"`
	// FalsePositives counts kill legs classified as violations — clean
	// crashes misread as attacks. The gate requires zero.
	FalsePositives int `json:"false_positives"`
	// RootMismatches counts kill legs that recovered "cleanly" to a root
	// that matches no sealed epoch. The gate requires zero.
	RootMismatches int `json:"root_mismatches"`
	// Detected counts tamper legs classified as violations; Missed the
	// rest. The gate requires Missed == 0.
	Detected int `json:"detected"`
	Missed   int `json:"missed"`
	// DeltaLegs counts the legs whose store wrote at least one delta
	// segment; the others killed or tampered with bases only.
	DeltaLegs int `json:"delta_legs"`

	// DetectionRate is Detected / Tampers.
	DetectionRate float64 `json:"detection_rate"`
}

// CrashReport is a full crash-campaign result; identical configs produce
// byte-identical reports.
type CrashReport struct {
	Seed   uint64 `json:"seed"`
	Scheme string `json:"scheme"`
	Policy string `json:"policy"`
	Shards int    `json:"shards"`

	Injections []CrashInjection `json:"injections"`
	Summary    CrashSummary     `json:"summary"`
}

// MarshalJSON pins float formatting so reports are byte-stable (see
// Summary.MarshalJSON).
func (s CrashSummary) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"clean_recoveries":%d,"delta_legs":%d,"detected":%d,"detection_rate":%.6f,`+
		`"false_positives":%d,"kills":%d,"missed":%d,"root_mismatches":%d,`+
		`"tampers":%d,"total":%d}`,
		s.CleanRecoveries, s.DeltaLegs, s.Detected, s.DetectionRate,
		s.FalsePositives, s.Kills, s.Missed, s.RootMismatches,
		s.Tampers, s.Total)
	return b.Bytes(), nil
}

func (r *CrashReport) summarize() {
	var s CrashSummary
	for _, inj := range r.Injections {
		s.Total++
		if inj.Deltas > 0 {
			s.DeltaLegs++
		}
		if inj.Kind == CrashKill {
			s.Kills++
			switch {
			case inj.Outcome == string(persist.OutcomeViolation):
				s.FalsePositives++
			case inj.ExactRoot:
				s.CleanRecoveries++
			default:
				s.RootMismatches++
			}
		} else {
			s.Tampers++
			if inj.Detected {
				s.Detected++
			} else {
				s.Missed++
			}
		}
	}
	if s.Tampers > 0 {
		s.DetectionRate = float64(s.Detected) / float64(s.Tampers)
	}
	r.Summary = s
}

// WriteCSV writes one header line plus one line per leg.
func (r *CrashReport) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "id,scheme,policy,shards,kind,stage,outcome,epoch,detected,exact_root,bases,deltas"); err != nil {
		return err
	}
	for _, inj := range r.Injections {
		if _, err := fmt.Fprintf(w, "%d,%s,%s,%d,%s,%s,%s,%d,%t,%t,%d,%d\n",
			inj.ID, r.Scheme, r.Policy, r.Shards,
			inj.Kind, inj.Stage, inj.Outcome, inj.Epoch, inj.Detected, inj.ExactRoot, inj.Bases, inj.Deltas); err != nil {
			return err
		}
	}
	return nil
}

// RunCrash executes a crash campaign: Injections independent
// checkpoint→crash→recover cycles, each in a fresh store directory.
func RunCrash(cfg CrashConfig) (*CrashReport, error) {
	if cfg.Injections <= 0 {
		return nil, fmt.Errorf("chaos: crash campaign needs at least one injection")
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	root := cfg.Dir
	if root == "" {
		var err error
		root, err = os.MkdirTemp("", "chaos-crash-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(root)
	}
	rep := &CrashReport{
		Seed:   cfg.Seed,
		Scheme: string(cfg.Scheme),
		Policy: cfg.Policy,
		Shards: cfg.Shards,
	}
	kills := 0
	for id := 0; id < cfg.Injections; id++ {
		kind := crashKinds[id%len(crashKinds)]
		stage := ""
		if kind == CrashKill {
			stage = killStages[kills%len(killStages)]
			kills++
		}
		inj, err := runCrashLeg(cfg, id, kind, stage, filepath.Join(root, fmt.Sprintf("leg-%04d", id)))
		if err != nil {
			return nil, fmt.Errorf("chaos: crash leg %d (%s): %w", id, kind, err)
		}
		rep.Injections = append(rep.Injections, *inj)
	}
	rep.summarize()
	return rep, nil
}

// crashSource abstracts the single-machine and sharded-store legs.
type crashSource interface {
	persist.Source
	write(rng *rand.Rand, n int) error
	roots() [][]byte
	close()
}

type machineLeg struct{ m *core.Machine }

func (l machineLeg) NumShards() int             { return 1 }
func (l machineLeg) MachineConfig() core.Config { return l.m.Cfg }
func (l machineLeg) WithMachine(i int, f func(*core.Machine) error) error {
	return f(l.m)
}
func (l machineLeg) write(rng *rand.Rand, n int) error {
	span := l.m.ProgSpan()
	buf := make([]byte, 64)
	for i := 0; i < n; i++ {
		rng.Read(buf)
		off := rng.Uint64() % (span - 64)
		if err := l.m.StoreBytes(off, buf); err != nil {
			return err
		}
	}
	return nil
}
func (l machineLeg) roots() [][]byte { return [][]byte{l.m.Root()} }
func (l machineLeg) close()          {}

type storeLeg struct{ s *shard.Store }

func (l storeLeg) NumShards() int             { return l.s.Shards() }
func (l storeLeg) MachineConfig() core.Config { return persist.StoreSource{S: l.s}.MachineConfig() }
func (l storeLeg) WithMachine(i int, f func(*core.Machine) error) error {
	return persist.StoreSource{S: l.s}.WithMachine(i, f)
}
func (l storeLeg) write(rng *rand.Rand, n int) error {
	span := l.s.Span()
	buf := make([]byte, 64)
	for i := 0; i < n; i++ {
		rng.Read(buf)
		off := rng.Uint64() % (span - 64)
		if err := l.s.StoreBytes(off, buf); err != nil {
			return err
		}
	}
	return nil
}
func (l storeLeg) roots() [][]byte {
	out := make([][]byte, l.s.Shards())
	for i := range out {
		i := i
		l.s.WithShard(i, func(m *core.Machine) { out[i] = m.Root() })
	}
	return out
}
func (l storeLeg) close() { l.s.Close() }

// runCrashLeg runs one injection in its own directory.
func runCrashLeg(cfg CrashConfig, id int, kind, stage, dir string) (*CrashInjection, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	mcfg := cfg.machineCrashConfig()
	var src crashSource
	if cfg.Shards > 1 {
		s, err := shard.New(shard.Config{Machine: mcfg, Shards: cfg.Shards})
		if err != nil {
			return nil, err
		}
		src = storeLeg{s}
	} else {
		m, err := core.NewMachine(mcfg)
		if err != nil {
			return nil, err
		}
		src = machineLeg{m}
	}
	defer src.close()

	// The campaign's fast retry policy: backoff sleeps would otherwise
	// dominate a 200-leg CI run.
	retry := persist.RetryPolicy{Attempts: 3, BaseDelay: 1, MaxDelay: 1}
	ffs := persist.NewFaultFS(nil)
	// Replay-dir legs anchor the WAL tail OUTSIDE the store directory —
	// the external trusted storage the whole-directory replay cannot
	// reach.
	anchorPath := ""
	if kind == CrashReplayDir {
		anchorPath = dir + ".anchor"
		defer os.Remove(anchorPath)
	}
	st, err := persist.Open(persist.Options{Dir: dir, FS: ffs, Retry: retry, AnchorPath: anchorPath})
	if err != nil {
		return nil, err
	}
	defer st.Close()

	rng := rand.New(rand.NewSource(int64(cfg.Seed)<<20 ^ int64(id)))
	inj := &CrashInjection{ID: id, Kind: kind, Stage: stage}

	// Epoch 1: committed cleanly on every leg.
	if err := src.write(rng, cfg.WritesPerRound); err != nil {
		return nil, err
	}
	if _, err := st.Checkpoint(src); err != nil {
		return nil, fmt.Errorf("checkpoint 1: %w", err)
	}
	sealed := map[uint64][][]byte{1: src.roots()}
	if kind == CrashStaleSnapshot {
		// The adversary stashes the committed epoch-1 snapshot now; the
		// GC of checkpoint 2 would otherwise delete its segments.
		if err := stashClean(dir); err != nil {
			return nil, err
		}
	}
	if kind == CrashReplayDir {
		// The adversary copies the WHOLE committed directory — WAL
		// included — to a location of their own for later replay.
		if err := stashWholeDir(dir, dir+".stash"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir + ".stash")
	}

	// The epochs after the first: a chain leg commits three rounds of
	// light traffic, each a delta over the last; the others commit or kill
	// one round whose weight decides which kind of segment that is.
	last := uint64(2)
	if chainLeg(kind) {
		last = chainEpochs
	}
	var cerr error
	for e := uint64(2); e <= last; e++ {
		n := 1 + rng.Intn(4*cfg.WritesPerRound)
		if chainLeg(kind) {
			n = 1 + rng.Intn(cfg.WritesPerRound/2)
		}
		if err := src.write(rng, n); err != nil {
			return nil, err
		}
		if kind == CrashKill {
			ffs.Kill(persist.KillRule{Stage: stage})
		}
		if _, cerr = st.Checkpoint(src); cerr != nil && kind != CrashKill {
			return nil, fmt.Errorf("checkpoint %d: %w", e, cerr)
		}
	}
	// The roots the last checkpoint sealed — or, killed, INTENDED to seal:
	// SaveState flushed the machines before the first disk write, so their
	// live roots are exactly the candidates.
	sealed[last] = src.roots()
	stats := st.Stats()
	inj.Bases, inj.Deltas = int(stats.BaseSegments), int(stats.DeltaSegments)
	switch {
	case kind == CrashKill:
		if cerr == nil || !ffs.Killed() {
			return nil, fmt.Errorf("kill stage %s never fired", stage)
		}
	case chainLeg(kind) && inj.Deltas != (chainEpochs-1)*cfg.Shards:
		return nil, fmt.Errorf("chain leg wrote %d bases and %d deltas: its rounds are too heavy for the footprint", inj.Bases, inj.Deltas)
	default:
		if err := applyDiskTamper(cfg, kind, dir, id, rng); err != nil {
			return nil, err
		}
	}

	// Restart: recover with a clean filesystem, as a rebooted process
	// would.
	rec, err := recoverLeg(cfg, mcfg, dir, anchorPath)
	if err != nil {
		return nil, err
	}
	inj.Outcome = string(rec.Outcome)
	inj.Epoch = rec.Epoch
	inj.Detail = rec.Detail
	inj.Detected = rec.Outcome == persist.OutcomeViolation
	if !inj.Detected {
		want, ok := sealed[rec.Epoch]
		inj.ExactRoot = ok && rootsEqual(rec.Roots, want)
	}
	return inj, nil
}

// recoverLeg dispatches recovery by source shape.
func recoverLeg(cfg CrashConfig, mcfg core.Config, dir, anchorPath string) (*persist.Recovery, error) {
	opts := persist.Options{Dir: dir, AnchorPath: anchorPath}
	if cfg.Shards > 1 {
		s, rec, err := persist.RecoverStore(opts, shard.Config{Machine: mcfg, Shards: cfg.Shards})
		if err != nil {
			return nil, err
		}
		s.Close()
		return rec, nil
	}
	_, rec, err := persist.RecoverMachine(opts, mcfg)
	return rec, err
}

func rootsEqual(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// applyDiskTamper mutates the committed on-disk state for a tamper leg.
// The last epoch is committed at this point — epoch 2, or a chain leg's
// chainEpochs — and the tamper targets what it reaches.
func applyDiskTamper(cfg CrashConfig, kind, dir string, id int, rng *rand.Rand) error {
	shardIdx := id % cfg.Shards
	seg := func(epoch uint64) string { return segPath(dir, epoch, shardIdx) }
	// middle draws a delta between the chain's base and its head.
	middle := func() uint64 { return uint64(2 + rng.Intn(chainEpochs-2)) }
	switch kind {
	case CrashTamperSegment, CrashForgeSegment:
		shard, err := busyShard(cfg, dir, 2, shardIdx)
		if err != nil {
			return err
		}
		return flipSegmentByte(segPath(dir, 2, shard), rng, kind == CrashForgeSegment)
	case CrashTruncateWAL:
		// Keep epoch 1's intent+commit, drop epoch 2's: the snapshot now
		// leads the log — committed epochs hidden.
		return os.Truncate(filepath.Join(dir, "wal.log"), 2*persist.WALRecordSize)
	case CrashStaleSnapshot:
		return staleSnapshotSwap(cfg, dir)
	case CrashReplayDir:
		return replayWholeDir(dir, dir+".stash")
	case CrashFlipLink:
		epoch := uint64(2 + rng.Intn(chainEpochs-1))
		shard, err := busyShard(cfg, dir, epoch, shardIdx)
		if err != nil {
			return err
		}
		return flipSegmentByte(segPath(dir, epoch, shard), rng, false)
	case CrashForgeLink:
		// The head: a forged line of an older link could be one a newer
		// link overwrites, and then the folded image would be the honest
		// one.
		shard, err := busyShard(cfg, dir, chainEpochs, shardIdx)
		if err != nil {
			return err
		}
		return flipSegmentByte(segPath(dir, chainEpochs, shard), rng, true)
	case CrashDropLink:
		return os.Remove(seg(middle()))
	case CrashSubstituteLink:
		// Over a link that carries lines: passing an idle epoch's empty
		// delta off as the next idle epoch's changes nothing.
		older := middle()
		shard, err := busyShard(cfg, dir, older+1, shardIdx)
		if err != nil {
			return err
		}
		buf, err := os.ReadFile(segPath(dir, older, shard))
		if err != nil {
			return err
		}
		if err := persist.RelabelSegment(buf, older+1); err != nil {
			return err
		}
		return os.WriteFile(segPath(dir, older+1, shard), buf, 0o644)
	case CrashTruncateBase:
		info, err := os.Stat(seg(1))
		if err != nil {
			return err
		}
		return os.Truncate(seg(1), int64(rng.Intn(int(info.Size()))))
	}
	return fmt.Errorf("unknown tamper kind %q", kind)
}

func segPath(dir string, epoch uint64, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%06d-%03d.dat", epoch, shard))
}

// busyShard returns the first shard, from shard first on, whose segment of
// the epoch carries image bytes: a shard the epoch's traffic missed wrote
// an empty delta, which has no line to flip or lose.
func busyShard(cfg CrashConfig, dir string, epoch uint64, first int) (int, error) {
	for k := 0; k < cfg.Shards; k++ {
		shard := (first + k) % cfg.Shards
		buf, err := os.ReadFile(segPath(dir, epoch, shard))
		if err != nil {
			return 0, err
		}
		if img, err := persist.SegmentImage(buf); err != nil {
			return 0, fmt.Errorf("epoch %d shard %d: %w", epoch, shard, err)
		} else if len(img) > 0 {
			return shard, nil
		}
	}
	return 0, fmt.Errorf("no shard wrote any line in epoch %d", epoch)
}

// flipSegmentByte flips one bit of the image bytes a segment file carries
// — a base's image, a delta's line bytes — in a byte the leg's generator
// draws from all of them: interior tree chunks, the code region and the
// program's data alike. With forge, the file's trailing checksum is
// recomputed so every crash-consistency check passes and only the engine's
// root walk can refuse the state.
func flipSegmentByte(name string, rng *rand.Rand, forge bool) error {
	buf, err := os.ReadFile(name)
	if err != nil {
		return err
	}
	img, err := persist.SegmentImage(buf)
	if err != nil {
		return fmt.Errorf("segment %s: %w", name, err)
	}
	img[rng.Intn(len(img))] ^= 0x01
	if forge {
		binary.LittleEndian.PutUint64(buf[len(buf)-8:], persist.Checksum64(buf[:len(buf)-8]))
	}
	return os.WriteFile(name, buf, 0o644)
}

// staleSnapshotSwap is the replay attack: the internally valid epoch-1
// snapshot the adversary stashed (stashClean, before checkpoint 2's GC
// deleted it) is reinstalled over the committed epoch-2 one, with the WAL
// left alone — recovery must notice the snapshot regressed past a sealed
// commit.
func staleSnapshotSwap(cfg CrashConfig, dir string) error {
	stash := filepath.Join(dir, "stash")
	ents, err := os.ReadDir(stash)
	if err != nil {
		return fmt.Errorf("stale-snapshot leg has no stash: %w", err)
	}
	// Remove epoch-2 segments, then restore the stashed epoch-1 files.
	cur, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range cur {
		if !e.IsDir() && len(e.Name()) > 4 && e.Name()[:4] == "seg-" {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	for _, e := range ents {
		buf, err := os.ReadFile(filepath.Join(stash, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), buf, 0o644); err != nil {
			return err
		}
	}
	return os.RemoveAll(stash)
}

// stashWholeDir copies EVERY file of dir into stash — the adversary
// snapshotting the complete directory, write-ahead log included.
func stashWholeDir(dir, stash string) error {
	if err := os.MkdirAll(stash, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(stash, e.Name()), buf, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// replayWholeDir wipes dir and reinstalls the stashed copy byte-exactly —
// the whole-directory replay. The resulting directory passes every
// internal consistency check; only the external anchor can refuse it.
func replayWholeDir(dir, stash string) error {
	cur, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range cur {
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	ents, err := os.ReadDir(stash)
	if err != nil {
		return fmt.Errorf("replay-dir leg has no stash: %w", err)
	}
	for _, e := range ents {
		buf, err := os.ReadFile(filepath.Join(stash, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), buf, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// stashClean copies the manifest and segment files into dir/stash — the
// adversary snapshotting a valid committed state for later replay.
func stashClean(dir string) error {
	stash := filepath.Join(dir, "stash")
	if err := os.MkdirAll(stash, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || (name != "MANIFEST" && (len(name) < 4 || name[:4] != "seg-")) {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(stash, name), buf, 0o644); err != nil {
			return err
		}
	}
	return nil
}
