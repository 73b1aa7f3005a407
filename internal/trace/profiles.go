package trace

// Profiles for the nine SPEC CPU2000 benchmarks the paper simulates
// (§6.3). Parameters are tuned to reproduce each benchmark's published
// qualitative behaviour on the paper's cache configurations:
//
//   - gcc, gzip: modest working sets with strong locality — low L2 miss
//     traffic, small verification overhead.
//   - mcf: enormous pointer-chasing working set, very high L2 miss
//     traffic, low ILP — the worst case for hash-cache contention at
//     256 KB.
//   - twolf, vpr: 160 KiB and 192 KiB data working sets, 72–75 % of
//     accesses in a 32 KiB hot set, plus 96 KiB of code: together about
//     the size of a 256 KB L2, so at that size the tree nodes hash
//     caching adds are what make them miss — the benchmarks whose Figure
//     4 miss rate inflates under hash caching.
//   - vortex: database-ish mix, many stores, moderate miss traffic.
//   - applu, swim: streaming FP over ~190 MB arrays — bandwidth-bound,
//     the ~10× victims of the naive scheme.
//   - art: smaller FP working set streamed repeatedly — bandwidth-hungry
//     below 4 MB.
var (
	GCC = Profile{
		Name: "gcc",
		Load: 0.24, Store: 0.11, Mul: 0.02, Branch: 0.18,
		WorkingSet: 16 << 20, HotSet: 32 << 10, HotFrac: 0.965,
		SeqFrac: 0.20, SeqStride: 16, Streams: 2, ScatterFrac: 0.003,
		ColdRegion: 1 << 10, ColdRun: 96,
		DepNear: 0.45, DepFar: 0.15, Mispredict: 0.055,
		CodeSet: 96 << 10,
	}
	Gzip = Profile{
		Name: "gzip",
		Load: 0.21, Store: 0.09, Mul: 0.01, Branch: 0.16,
		WorkingSet: 8 << 20, HotSet: 32 << 10, HotFrac: 0.982,
		SeqFrac: 0.50, SeqStride: 8, Streams: 2, ScatterFrac: 0.003,
		ColdRegion: 2 << 10, ColdRun: 128,
		DepNear: 0.40, DepFar: 0.12, Mispredict: 0.07,
		CodeSet: 64 << 10,
	}
	MCF = Profile{
		Name: "mcf",
		Load: 0.32, Store: 0.09, Mul: 0.01, Branch: 0.19,
		WorkingSet: 190 << 20, HotSet: 32 << 10, HotFrac: 0.76,
		SeqFrac: 0.05, ChaseFrac: 0.45, ChaseRegion: 448 << 10, ScatterFrac: 0.008,
		ColdRegion: 2 << 10, ColdRun: 256,
		DepNear: 0.50, DepFar: 0.20, Mispredict: 0.08,
		CodeSet: 32 << 10,
	}
	Twolf = Profile{
		Name: "twolf",
		Load: 0.27, Store: 0.11, Mul: 0.03, Branch: 0.15,
		WorkingSet: 160 << 10, HotSet: 32 << 10, HotFrac: 0.72,
		SeqFrac: 0.05, SeqStride: 16, Streams: 2, ChaseFrac: 0.10, ScatterFrac: 0.04,
		ColdRegion: 1 << 10, ColdRun: 32,
		DepNear: 0.45, DepFar: 0.18, Mispredict: 0.08,
		CodeSet: 96 << 10,
	}
	Vortex = Profile{
		Name: "vortex",
		Load: 0.27, Store: 0.14, Mul: 0.01, Branch: 0.16,
		WorkingSet: 48 << 20, HotSet: 48 << 10, HotFrac: 0.955,
		SeqFrac: 0.20, SeqStride: 32, Streams: 2, ScatterFrac: 0.015,
		ColdRegion: 8 << 10, ColdRun: 96,
		DepNear: 0.40, DepFar: 0.12, Mispredict: 0.025,
		CodeSet: 96 << 10,
	}
	VPR = Profile{
		Name: "vpr",
		Load: 0.29, Store: 0.11, Mul: 0.02, Branch: 0.13,
		WorkingSet: 192 << 10, HotSet: 32 << 10, HotFrac: 0.75,
		SeqFrac: 0.05, SeqStride: 16, Streams: 2, ChaseFrac: 0.08, ScatterFrac: 0.04,
		ColdRegion: 1 << 10, ColdRun: 24,
		DepNear: 0.45, DepFar: 0.18, Mispredict: 0.07,
		CodeSet: 96 << 10,
	}
	Applu = Profile{
		Name: "applu",
		Load: 0.30, Store: 0.12, FP: 0.34, Branch: 0.04,
		WorkingSet: 180 << 20, HotSet: 32 << 10, HotFrac: 0.84,
		SeqFrac: 0.92, SeqStride: 8, Streams: 6, ScatterFrac: 0.008,
		DepNear: 0.30, DepFar: 0.10, Mispredict: 0.01,
		CodeSet: 96 << 10,
	}
	Art = Profile{
		Name: "art",
		Load: 0.33, Store: 0.05, FP: 0.30, Branch: 0.10,
		WorkingSet: 5 << 20, HotSet: 16 << 10, HotFrac: 0.78,
		SeqFrac: 0.92, SeqStride: 8, Streams: 4, ScatterFrac: 0.008,
		DepNear: 0.35, DepFar: 0.10, Mispredict: 0.02,
		CodeSet: 32 << 10,
	}
	Swim = Profile{
		Name: "swim",
		Load: 0.28, Store: 0.16, FP: 0.34, Branch: 0.03,
		WorkingSet: 190 << 20, HotSet: 16 << 10, HotFrac: 0.83,
		SeqFrac: 0.94, ScatterFrac: 0.01, SeqStride: 8, Streams: 8,
		DepNear: 0.28, DepFar: 0.08, Mispredict: 0.01,
		CodeSet: 32 << 10,
	}
)

// Benchmarks lists the paper's nine workloads in its plotting order.
var Benchmarks = []Profile{GCC, Gzip, MCF, Twolf, Vortex, VPR, Applu, Art, Swim}

// ByName returns the benchmark profile with the given name.
func ByName(name string) (Profile, bool) {
	for _, p := range Benchmarks {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Uniform returns a profile performing uniformly random loads and stores
// over a working set — a stress generator for tests.
func Uniform(name string, workingSet uint64) Profile {
	return Profile{
		Name: name,
		Load: 0.30, Store: 0.15, Branch: 0.10,
		WorkingSet: workingSet, HotSet: 8 << 10, HotFrac: 0,
		ColdRegion: 64, ColdRun: 1,
		DepNear: 0.3, Mispredict: 0.05,
	}
}

// Stream returns a pure streaming profile for tests.
func Stream(name string, workingSet uint64, stride uint64) Profile {
	return Profile{
		Name: name,
		Load: 0.30, Store: 0.15,
		WorkingSet: workingSet, HotSet: 8 << 10, HotFrac: 0,
		SeqFrac: 1.0, SeqStride: stride, Streams: 2,
		DepNear: 0.2,
	}
}
