package workloads

import "fmt"

// Profiles returns the full 33-program reference suite in presentation
// order: 11 SPECint2006, 10 SPECfp2006, 12 MiBench proxies (the counts
// the paper evaluates). Characteristic values are first-order published
// behaviours: mcf/omnetpp/astar pointer-chasing and memory-bound,
// libquantum/GemsFDTD/bwaves streaming, gobmk/sjeng mispredict-heavy,
// hmmer/h264ref compute-dense, MiBench kernels small-footprint and
// predictable.
func Profiles() []Profile {
	return []Profile{
		// --- SPEC CPU2006 integer ---
		{Name: "400.perlbench", Suite: SPECInt, LoadFrac: 0.25, StoreFrac: 0.12, BranchFrac: 0.18,
			HardBranchFrac: 0.5, MispredP: 0.05, LongArithFrac: 0.05, Lanes: 4, ChainLen: 3,
			WorkingSetL2x: 0.35, ChaseFrac: 0.15, RandomFrac: 0.35, UnACEFrac: 0.08, BodySize: 180},
		{Name: "401.bzip2", Suite: SPECInt, LoadFrac: 0.26, StoreFrac: 0.09, BranchFrac: 0.14,
			HardBranchFrac: 0.6, MispredP: 0.08, LongArithFrac: 0.04, Lanes: 4, ChainLen: 4,
			WorkingSetL2x: 1.6, ChaseFrac: 0.05, RandomFrac: 0.5, UnACEFrac: 0.06, BodySize: 140},
		{Name: "403.gcc", Suite: SPECInt, LoadFrac: 0.27, StoreFrac: 0.14, BranchFrac: 0.16,
			HardBranchFrac: 0.35, MispredP: 0.04, LongArithFrac: 0.03, Lanes: 4, ChainLen: 3,
			WorkingSetL2x: 2.2, ChaseFrac: 0.25, RandomFrac: 0.45, UnACEFrac: 0.09, BodySize: 260},
		{Name: "429.mcf", Suite: SPECInt, LoadFrac: 0.31, StoreFrac: 0.09, BranchFrac: 0.17,
			HardBranchFrac: 0.55, MispredP: 0.08, LongArithFrac: 0.02, Lanes: 2, ChainLen: 2,
			WorkingSetL2x: 4.0, ChaseFrac: 0.6, RandomFrac: 0.3, UnACEFrac: 0.05, BodySize: 90},
		{Name: "445.gobmk", Suite: SPECInt, LoadFrac: 0.24, StoreFrac: 0.12, BranchFrac: 0.19,
			HardBranchFrac: 0.75, MispredP: 0.11, LongArithFrac: 0.04, Lanes: 4, ChainLen: 3,
			WorkingSetL2x: 0.35, ChaseFrac: 0.1, RandomFrac: 0.4, UnACEFrac: 0.08, BodySize: 200},
		{Name: "456.hmmer", Suite: SPECInt, LoadFrac: 0.4, StoreFrac: 0.16, BranchFrac: 0.07,
			HardBranchFrac: 0.2, MispredP: 0.02, LongArithFrac: 0.08, Lanes: 6, ChainLen: 4,
			WorkingSetL2x: 0.3, ChaseFrac: 0, RandomFrac: 0.1, UnACEFrac: 0.04, BodySize: 150},
		{Name: "458.sjeng", Suite: SPECInt, LoadFrac: 0.22, StoreFrac: 0.08, BranchFrac: 0.19,
			HardBranchFrac: 0.8, MispredP: 0.12, LongArithFrac: 0.05, Lanes: 4, ChainLen: 3,
			WorkingSetL2x: 0.4, ChaseFrac: 0.15, RandomFrac: 0.45, UnACEFrac: 0.07, BodySize: 170},
		{Name: "462.libquantum", Suite: SPECInt, LoadFrac: 0.25, StoreFrac: 0.06, BranchFrac: 0.22,
			HardBranchFrac: 0.1, MispredP: 0.01, LongArithFrac: 0.1, Lanes: 4, ChainLen: 2,
			WorkingSetL2x: 3.0, ChaseFrac: 0, RandomFrac: 0.05, UnACEFrac: 0.04, BodySize: 80},
		{Name: "464.h264ref", Suite: SPECInt, LoadFrac: 0.35, StoreFrac: 0.14, BranchFrac: 0.08,
			HardBranchFrac: 0.35, MispredP: 0.05, LongArithFrac: 0.12, Lanes: 5, ChainLen: 4,
			WorkingSetL2x: 0.45, ChaseFrac: 0.05, RandomFrac: 0.2, UnACEFrac: 0.05, BodySize: 220},
		{Name: "471.omnetpp", Suite: SPECInt, LoadFrac: 0.33, StoreFrac: 0.19, BranchFrac: 0.17,
			HardBranchFrac: 0.5, MispredP: 0.07, LongArithFrac: 0.03, Lanes: 3, ChainLen: 2,
			WorkingSetL2x: 2.6, ChaseFrac: 0.4, RandomFrac: 0.45, UnACEFrac: 0.06, BodySize: 190},
		{Name: "473.astar", Suite: SPECInt, LoadFrac: 0.28, StoreFrac: 0.05, BranchFrac: 0.16,
			HardBranchFrac: 0.6, MispredP: 0.1, LongArithFrac: 0.03, Lanes: 3, ChainLen: 3,
			WorkingSetL2x: 1.9, ChaseFrac: 0.5, RandomFrac: 0.35, UnACEFrac: 0.05, BodySize: 120},

		// --- SPEC CPU2006 floating point (high-ILP integer proxies) ---
		{Name: "410.bwaves", Suite: SPECFP, LoadFrac: 0.4, StoreFrac: 0.1, BranchFrac: 0.03,
			HardBranchFrac: 0.05, MispredP: 0.01, LongArithFrac: 0.4, Lanes: 7, ChainLen: 5,
			WorkingSetL2x: 3.2, ChaseFrac: 0, RandomFrac: 0.05, UnACEFrac: 0.03, BodySize: 240},
		{Name: "433.milc", Suite: SPECFP, LoadFrac: 0.37, StoreFrac: 0.15, BranchFrac: 0.03,
			HardBranchFrac: 0.1, MispredP: 0.02, LongArithFrac: 0.38, Lanes: 6, ChainLen: 4,
			WorkingSetL2x: 2.8, ChaseFrac: 0, RandomFrac: 0.15, UnACEFrac: 0.04, BodySize: 200},
		{Name: "434.zeusmp", Suite: SPECFP, LoadFrac: 0.29, StoreFrac: 0.11, BranchFrac: 0.04,
			HardBranchFrac: 0.1, MispredP: 0.02, LongArithFrac: 0.45, Lanes: 7, ChainLen: 5,
			WorkingSetL2x: 2.4, ChaseFrac: 0, RandomFrac: 0.1, UnACEFrac: 0.04, BodySize: 260},
		{Name: "435.gromacs", Suite: SPECFP, LoadFrac: 0.3, StoreFrac: 0.13, BranchFrac: 0.06,
			HardBranchFrac: 0.2, MispredP: 0.03, LongArithFrac: 0.42, Lanes: 6, ChainLen: 5,
			WorkingSetL2x: 0.4, ChaseFrac: 0, RandomFrac: 0.2, UnACEFrac: 0.04, BodySize: 220},
		{Name: "436.cactusADM", Suite: SPECFP, LoadFrac: 0.36, StoreFrac: 0.12, BranchFrac: 0.01,
			HardBranchFrac: 0.05, MispredP: 0.01, LongArithFrac: 0.5, Lanes: 6, ChainLen: 6,
			WorkingSetL2x: 2.0, ChaseFrac: 0, RandomFrac: 0.05, UnACEFrac: 0.03, BodySize: 300},
		{Name: "437.leslie3d", Suite: SPECFP, LoadFrac: 0.38, StoreFrac: 0.12, BranchFrac: 0.03,
			HardBranchFrac: 0.05, MispredP: 0.01, LongArithFrac: 0.42, Lanes: 7, ChainLen: 5,
			WorkingSetL2x: 2.6, ChaseFrac: 0, RandomFrac: 0.05, UnACEFrac: 0.03, BodySize: 240},
		{Name: "444.namd", Suite: SPECFP, LoadFrac: 0.32, StoreFrac: 0.09, BranchFrac: 0.05,
			HardBranchFrac: 0.15, MispredP: 0.02, LongArithFrac: 0.48, Lanes: 7, ChainLen: 6,
			WorkingSetL2x: 0.3, ChaseFrac: 0, RandomFrac: 0.15, UnACEFrac: 0.03, BodySize: 260},
		{Name: "447.dealII", Suite: SPECFP, LoadFrac: 0.37, StoreFrac: 0.13, BranchFrac: 0.06,
			HardBranchFrac: 0.2, MispredP: 0.02, LongArithFrac: 0.35, Lanes: 6, ChainLen: 5,
			WorkingSetL2x: 1.8, ChaseFrac: 0.1, RandomFrac: 0.25, UnACEFrac: 0.03, BodySize: 230},
		{Name: "450.soplex", Suite: SPECFP, LoadFrac: 0.36, StoreFrac: 0.08, BranchFrac: 0.12,
			HardBranchFrac: 0.4, MispredP: 0.05, LongArithFrac: 0.3, Lanes: 5, ChainLen: 4,
			WorkingSetL2x: 2.2, ChaseFrac: 0.15, RandomFrac: 0.3, UnACEFrac: 0.04, BodySize: 190},
		{Name: "459.GemsFDTD", Suite: SPECFP, LoadFrac: 0.41, StoreFrac: 0.14, BranchFrac: 0.02,
			HardBranchFrac: 0.05, MispredP: 0.01, LongArithFrac: 0.45, Lanes: 7, ChainLen: 5,
			WorkingSetL2x: 3.0, ChaseFrac: 0, RandomFrac: 0.05, UnACEFrac: 0.03, BodySize: 280},

		// --- MiBench ---
		{Name: "basicmath", Suite: MiBench, LoadFrac: 0.2, StoreFrac: 0.08, BranchFrac: 0.12,
			HardBranchFrac: 0.15, MispredP: 0.02, LongArithFrac: 0.35, Lanes: 3, ChainLen: 5,
			WorkingSetL2x: 0.15, ChaseFrac: 0, RandomFrac: 0.4, UnACEFrac: 0.08, BodySize: 90},
		{Name: "bitcount", Suite: MiBench, LoadFrac: 0.12, StoreFrac: 0.04, BranchFrac: 0.2,
			HardBranchFrac: 0.3, MispredP: 0.04, LongArithFrac: 0.02, Lanes: 4, ChainLen: 4,
			WorkingSetL2x: 0.13, ChaseFrac: 0, RandomFrac: 0.4, UnACEFrac: 0.1, BodySize: 60},
		{Name: "qsort", Suite: MiBench, LoadFrac: 0.3, StoreFrac: 0.15, BranchFrac: 0.18,
			HardBranchFrac: 0.7, MispredP: 0.09, LongArithFrac: 0.02, Lanes: 3, ChainLen: 2,
			WorkingSetL2x: 0.3, ChaseFrac: 0.1, RandomFrac: 0.5, UnACEFrac: 0.06, BodySize: 80},
		{Name: "susan", Suite: MiBench, LoadFrac: 0.31, StoreFrac: 0.1, BranchFrac: 0.09,
			HardBranchFrac: 0.2, MispredP: 0.02, LongArithFrac: 0.25, Lanes: 5, ChainLen: 4,
			WorkingSetL2x: 0.2, ChaseFrac: 0, RandomFrac: 0.1, UnACEFrac: 0.05, BodySize: 130},
		{Name: "jpeg", Suite: MiBench, LoadFrac: 0.28, StoreFrac: 0.12, BranchFrac: 0.1,
			HardBranchFrac: 0.3, MispredP: 0.04, LongArithFrac: 0.2, Lanes: 4, ChainLen: 4,
			WorkingSetL2x: 0.15, ChaseFrac: 0, RandomFrac: 0.2, UnACEFrac: 0.07, BodySize: 140},
		{Name: "dijkstra", Suite: MiBench, LoadFrac: 0.3, StoreFrac: 0.1, BranchFrac: 0.16,
			HardBranchFrac: 0.5, MispredP: 0.06, LongArithFrac: 0.03, Lanes: 3, ChainLen: 2,
			WorkingSetL2x: 0.25, ChaseFrac: 0.2, RandomFrac: 0.4, UnACEFrac: 0.06, BodySize: 70},
		{Name: "patricia", Suite: MiBench, LoadFrac: 0.32, StoreFrac: 0.1, BranchFrac: 0.17,
			HardBranchFrac: 0.55, MispredP: 0.07, LongArithFrac: 0.02, Lanes: 2, ChainLen: 2,
			WorkingSetL2x: 0.35, ChaseFrac: 0.35, RandomFrac: 0.45, UnACEFrac: 0.05, BodySize: 80},
		{Name: "stringsearch", Suite: MiBench, LoadFrac: 0.3, StoreFrac: 0.05, BranchFrac: 0.2,
			HardBranchFrac: 0.4, MispredP: 0.05, LongArithFrac: 0.01, Lanes: 3, ChainLen: 2,
			WorkingSetL2x: 0.14, ChaseFrac: 0, RandomFrac: 0.15, UnACEFrac: 0.08, BodySize: 60},
		{Name: "blowfish", Suite: MiBench, LoadFrac: 0.25, StoreFrac: 0.1, BranchFrac: 0.06,
			HardBranchFrac: 0.1, MispredP: 0.02, LongArithFrac: 0.05, Lanes: 4, ChainLen: 5,
			WorkingSetL2x: 0.18, ChaseFrac: 0, RandomFrac: 0.3, UnACEFrac: 0.05, BodySize: 110},
		{Name: "sha", Suite: MiBench, LoadFrac: 0.2, StoreFrac: 0.08, BranchFrac: 0.05,
			HardBranchFrac: 0.1, MispredP: 0.01, LongArithFrac: 0.08, Lanes: 4, ChainLen: 6,
			WorkingSetL2x: 0.16, ChaseFrac: 0, RandomFrac: 0.35, UnACEFrac: 0.06, BodySize: 120},
		{Name: "crc32", Suite: MiBench, LoadFrac: 0.28, StoreFrac: 0.04, BranchFrac: 0.18,
			HardBranchFrac: 0.05, MispredP: 0.005, LongArithFrac: 0.01, Lanes: 3, ChainLen: 3,
			WorkingSetL2x: 0.15, ChaseFrac: 0, RandomFrac: 0.5, UnACEFrac: 0.07, BodySize: 50},
		{Name: "fft", Suite: MiBench, LoadFrac: 0.3, StoreFrac: 0.13, BranchFrac: 0.07,
			HardBranchFrac: 0.15, MispredP: 0.02, LongArithFrac: 0.4, Lanes: 5, ChainLen: 5,
			WorkingSetL2x: 0.4, ChaseFrac: 0, RandomFrac: 0.1, UnACEFrac: 0.04, BodySize: 150},
	}
}

// ByName returns the named profile.
func ByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workloads: unknown workload %q", name)
}
