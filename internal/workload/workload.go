// Package workload defines the synthetic workload profiles that drive
// the full-system simulator. Each profile is a statistical
// characterization — memory intensity, locality, sharing, barrier
// behaviour — of one benchmark from the suites the paper evaluates
// (PARSEC 2.1 multi-threaded, SPEC CPU2006/2017 in 64-copy rate mode,
// CloudSuite). Profiles substitute for running the real binaries under
// Gem5 (see DESIGN.md, substitution #4); the L2 MPKI ranges match the
// per-suite injection bands of Fig 18 and published characterizations.
package workload

import (
	"fmt"
	"math"
)

// Suite identifies the benchmark suite a profile belongs to.
type Suite int

const (
	// PARSEC 2.1 multithreaded workloads (Fig 3, 17, 23).
	PARSEC Suite = iota
	// SPEC2006 rate-mode workloads (Fig 18, 24).
	SPEC2006
	// SPEC2017 rate-mode workloads (Fig 18, 24).
	SPEC2017
	// CloudSuite scale-out workloads (Fig 18).
	CloudSuite
)

// String implements fmt.Stringer.
func (s Suite) String() string {
	switch s {
	case PARSEC:
		return "PARSEC 2.1"
	case SPEC2006:
		return "SPEC2006"
	case SPEC2017:
		return "SPEC2017"
	case CloudSuite:
		return "CloudSuite"
	default:
		return fmt.Sprintf("Suite(%d)", int(s))
	}
}

// Profile is the statistical model of one workload on the 64-core
// target system.
type Profile struct {
	Name  string
	Suite Suite

	// ILP is the exploitable instruction-level parallelism: the IPC the
	// core sustains with unbounded issue width and a perfect memory
	// system.
	ILP float64
	// BranchMPKI is branch mispredictions per kilo-instruction; deeper
	// pipelines multiply its cost (the CryoSP IPC tax, §4.4).
	BranchMPKI float64

	// L1MPKI is L1D misses that hit in the private L2 (per kinst).
	L1MPKI float64
	// L2MPKI is private-L2 misses per kilo-instruction — the NoC/L3
	// request rate of Fig 18.
	L2MPKI float64
	// L3MissRatio is the fraction of L2 misses that also miss the
	// shared L3 and go to DRAM.
	L3MissRatio float64
	// SharedFraction is the fraction of L2 misses owned by a remote
	// core's cache (dirty sharing → 3-hop directory or cache-to-cache
	// snoop transfer).
	SharedFraction float64

	// MLP is the memory-level parallelism: how many L2 misses the core
	// keeps in flight before stalling (pointer chasers ≈ 1–2).
	MLP float64

	// BarriersPerMI is synchronization barriers per million committed
	// instructions per core (streamcluster is the outlier, §6.2).
	BarriersPerMI float64

	// LockMPKI is contended lock acquisitions per kilo-instruction.
	// Lock hand-offs serialize on hot cache lines, so their cost is a
	// full coherence round trip per hand-off — the main way slow NoCs
	// destroy multi-thread scaling (pipeline-parallel and fine-grained
	// locking apps: ferret, fluidanimate, dedup).
	LockMPKI float64
}

// Validate checks profile plausibility: positive ILP, non-negative
// event rates, share fractions inside [0,1], and no NaNs anywhere — a
// NaN rate would silently poison every downstream statistic instead of
// failing at the boundary.
func (p Profile) Validate() error {
	for _, f := range []struct {
		name  string
		value float64
	}{
		{"ILP", p.ILP},
		{"BranchMPKI", p.BranchMPKI},
		{"L1MPKI", p.L1MPKI},
		{"L2MPKI", p.L2MPKI},
		{"L3MissRatio", p.L3MissRatio},
		{"SharedFraction", p.SharedFraction},
		{"MLP", p.MLP},
		{"BarriersPerMI", p.BarriersPerMI},
		{"LockMPKI", p.LockMPKI},
	} {
		if math.IsNaN(f.value) || math.IsInf(f.value, 0) {
			return fmt.Errorf("workload %s: %s is %v", p.Name, f.name, f.value)
		}
	}
	switch {
	case p.ILP <= 0:
		return fmt.Errorf("workload %s: non-positive ILP", p.Name)
	case p.BranchMPKI < 0:
		return fmt.Errorf("workload %s: negative BranchMPKI", p.Name)
	case p.L2MPKI < 0 || p.L1MPKI < 0:
		return fmt.Errorf("workload %s: negative MPKI", p.Name)
	case p.L3MissRatio < 0 || p.L3MissRatio > 1:
		return fmt.Errorf("workload %s: L3MissRatio %v outside [0,1]", p.Name, p.L3MissRatio)
	case p.SharedFraction < 0 || p.SharedFraction > 1:
		return fmt.Errorf("workload %s: SharedFraction %v outside [0,1]", p.Name, p.SharedFraction)
	case p.MLP < 1:
		return fmt.Errorf("workload %s: MLP %v below 1", p.Name, p.MLP)
	case p.BarriersPerMI < 0:
		return fmt.Errorf("workload %s: negative barrier rate", p.Name)
	case p.LockMPKI < 0:
		return fmt.Errorf("workload %s: negative LockMPKI", p.Name)
	}
	return nil
}

// Parsec returns the 13 PARSEC 2.1 profiles. Memory intensity and
// sharing follow the published PARSEC characterization (Bienia et al.):
// canneal is the pointer-chasing cache-buster, streamcluster the
// barrier-dominated streamer, swaptions/blackscholes compute-bound.
func Parsec() []Profile {
	return []Profile{
		{Name: "blackscholes", Suite: PARSEC, ILP: 2.6, BranchMPKI: 6, L1MPKI: 6, L2MPKI: 0.9, L3MissRatio: 0.25, SharedFraction: 0.15, MLP: 4.8, BarriersPerMI: 2, LockMPKI: 0.02},
		{Name: "bodytrack", Suite: PARSEC, ILP: 2.2, BranchMPKI: 12, L1MPKI: 14, L2MPKI: 2.4, L3MissRatio: 0.35, SharedFraction: 0.45, MLP: 2.8, BarriersPerMI: 60, LockMPKI: 0.4},
		{Name: "canneal", Suite: PARSEC, ILP: 1.2, BranchMPKI: 10, L1MPKI: 28, L2MPKI: 3.6, L3MissRatio: 0.55, SharedFraction: 0.4, MLP: 1.1, BarriersPerMI: 1, LockMPKI: 0.05},
		{Name: "dedup", Suite: PARSEC, ILP: 2.0, BranchMPKI: 14, L1MPKI: 18, L2MPKI: 2.4, L3MissRatio: 0.35, SharedFraction: 0.55, MLP: 3.2, BarriersPerMI: 5, LockMPKI: 0.35},
		{Name: "facesim", Suite: PARSEC, ILP: 2.1, BranchMPKI: 8, L1MPKI: 20, L2MPKI: 2.4, L3MissRatio: 0.4, SharedFraction: 0.45, MLP: 3.2, BarriersPerMI: 20, LockMPKI: 0.3},
		{Name: "ferret", Suite: PARSEC, ILP: 2.0, BranchMPKI: 11, L1MPKI: 22, L2MPKI: 2, L3MissRatio: 0.35, SharedFraction: 0.6, MLP: 2.4, BarriersPerMI: 10, LockMPKI: 0.45},
		{Name: "fluidanimate", Suite: PARSEC, ILP: 2.1, BranchMPKI: 7, L1MPKI: 16, L2MPKI: 1.8, L3MissRatio: 0.3, SharedFraction: 0.55, MLP: 3.2, BarriersPerMI: 30, LockMPKI: 0.55},
		{Name: "freqmine", Suite: PARSEC, ILP: 2.2, BranchMPKI: 9, L1MPKI: 15, L2MPKI: 2.2, L3MissRatio: 0.3, SharedFraction: 0.45, MLP: 3.2, BarriersPerMI: 3, LockMPKI: 0.15},
		{Name: "raytrace", Suite: PARSEC, ILP: 2.3, BranchMPKI: 9, L1MPKI: 12, L2MPKI: 2, L3MissRatio: 0.25, SharedFraction: 0.35, MLP: 4, BarriersPerMI: 4, LockMPKI: 0.15},
		{Name: "streamcluster", Suite: PARSEC, ILP: 1.8, BranchMPKI: 5, L1MPKI: 24, L2MPKI: 3.2, L3MissRatio: 0.3, SharedFraction: 0.6, MLP: 2.4, BarriersPerMI: 800, LockMPKI: 0.2},
		{Name: "swaptions", Suite: PARSEC, ILP: 2.5, BranchMPKI: 8, L1MPKI: 10, L2MPKI: 1.7, L3MissRatio: 0.3, SharedFraction: 0.35, MLP: 1.44, BarriersPerMI: 2, LockMPKI: 0.45},
		{Name: "vips", Suite: PARSEC, ILP: 2.3, BranchMPKI: 10, L1MPKI: 14, L2MPKI: 2.2, L3MissRatio: 0.3, SharedFraction: 0.5, MLP: 3.6, BarriersPerMI: 8, LockMPKI: 0.25},
		{Name: "x264", Suite: PARSEC, ILP: 2.4, BranchMPKI: 16, L1MPKI: 17, L2MPKI: 2.6, L3MissRatio: 0.45, SharedFraction: 0.45, MLP: 2.4, BarriersPerMI: 6, LockMPKI: 0.2},
	}
}

// Spec2006 returns the SPEC CPU2006 rate-mode profiles of Fig 24: no
// sharing, no barriers, 64 independent copies. MPKIs follow the
// standard characterization (mcf/lbm/libquantum memory-bound,
// cactusADM/gcc/xalancbmk the bus-contention cases of §7.1).
func Spec2006() []Profile {
	mk := func(name string, ilp, br, l1, l2, l3m, mlp float64) Profile {
		return Profile{Name: name, Suite: SPEC2006, ILP: ilp, BranchMPKI: br,
			L1MPKI: l1, L2MPKI: l2, L3MissRatio: l3m, MLP: mlp}
	}
	return []Profile{
		mk("perlbench", 2.4, 12, 8, 1.0, 0.3, 4),
		mk("bzip2", 2.2, 10, 10, 2.6, 0.4, 4),
		mk("gcc", 2.0, 14, 16, 5, 0.5, 3),
		mk("mcf", 1.2, 12, 40, 9, 0.6, 1.6),
		mk("cactusADM", 1.8, 3, 22, 5.5, 0.6, 3),
		mk("gobmk", 2.1, 18, 9, 1.2, 0.3, 4),
		mk("hmmer", 2.6, 4, 6, 0.8, 0.3, 6),
		mk("libquantum", 1.9, 2, 30, 7, 0.8, 4),
		mk("lbm", 1.7, 2, 28, 6.5, 0.8, 4),
		mk("xalancbmk", 2.0, 16, 18, 4.5, 0.4, 3),
	}
}

// Spec2017 returns the SPEC CPU2017 rate-mode profiles.
func Spec2017() []Profile {
	mk := func(name string, ilp, br, l1, l2, l3m, mlp float64) Profile {
		return Profile{Name: name, Suite: SPEC2017, ILP: ilp, BranchMPKI: br,
			L1MPKI: l1, L2MPKI: l2, L3MissRatio: l3m, MLP: mlp}
	}
	return []Profile{
		mk("perlbench_r", 2.4, 12, 8, 1.1, 0.3, 4),
		mk("gcc_r", 2.0, 14, 17, 5.2, 0.5, 3),
		mk("mcf_r", 1.3, 13, 38, 8.5, 0.6, 1.8),
		mk("lbm_r", 1.7, 2, 30, 7, 0.8, 4),
		mk("omnetpp_r", 1.8, 12, 22, 5, 0.5, 2.5),
		mk("xalancbmk_r", 2.0, 16, 19, 4.8, 0.4, 3),
		mk("x264_r", 2.5, 14, 12, 2.2, 0.4, 4),
		mk("deepsjeng_r", 2.2, 16, 10, 1.5, 0.3, 4),
	}
}

// CloudSuiteProfiles returns the scale-out workloads that define the
// top of the Fig 18 injection band.
func CloudSuiteProfiles() []Profile {
	mk := func(name string, ilp, br, l1, l2, l3m, shared, mlp float64) Profile {
		return Profile{Name: name, Suite: CloudSuite, ILP: ilp, BranchMPKI: br,
			L1MPKI: l1, L2MPKI: l2, L3MissRatio: l3m, SharedFraction: shared, MLP: mlp}
	}
	return []Profile{
		mk("data-serving", 1.8, 14, 30, 13.0, 0.5, 0.2, 3),
		mk("web-search", 1.9, 12, 26, 11.0, 0.5, 0.15, 3),
		mk("media-streaming", 2.0, 8, 28, 14.0, 0.6, 0.1, 4),
		mk("graph-analytics", 1.5, 10, 34, 15.5, 0.6, 0.3, 2.5),
	}
}

// ByName finds a profile across all suites.
func ByName(name string) (Profile, error) {
	for _, set := range [][]Profile{Parsec(), Spec2006(), Spec2017(), CloudSuiteProfiles()} {
		for _, p := range set {
			if p.Name == name {
				return p, nil
			}
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown profile %q", name)
}

// InjectionRate estimates the per-core NoC request injection rate
// (packets per node per NoC cycle) a profile offers at the given IPC
// and core/NoC frequency ratio — the x-axis quantity of Fig 18.
func (p Profile) InjectionRate(ipc, freqRatio float64) float64 {
	return p.L2MPKI / 1000 * ipc * freqRatio
}

// estimation constants for the closed-form IPC below.
const (
	estMispredictPenalty = 12   // baseline frontend refill, cycles
	estBarrierCost       = 1500 // cycles per barrier on a 64-core system
)

// EstimatedIPC is the closed-form first-order IPC of the profile given
// an average L2-miss round-trip latency in core cycles: the base ILP
// term plus branch, memory (MLP-overlapped) and barrier components.
// The simulator supersedes this; it exists to position the Fig 18
// injection bands without running full simulations.
func (p Profile) EstimatedIPC(missLatency float64) float64 {
	cpi := 1/p.ILP +
		p.BranchMPKI/1000*estMispredictPenalty +
		p.L2MPKI/1000*missLatency/p.MLP +
		p.BarriersPerMI/1e6*estBarrierCost
	return 1 / cpi
}

// bandMissLatency is the representative L2-miss round trip (core
// cycles) used to position the Fig 18 bands.
const bandMissLatency = 60

// SuiteInjectionBand returns the [min,max] per-core injection rate of
// a suite at each profile's estimated achievable IPC (Fig 18's
// workload bands).
func SuiteInjectionBand(s Suite) (lo, hi float64) {
	var set []Profile
	switch s {
	case PARSEC:
		set = Parsec()
	case SPEC2006:
		set = Spec2006()
	case SPEC2017:
		set = Spec2017()
	case CloudSuite:
		set = CloudSuiteProfiles()
	}
	lo, hi = 1.0, 0.0
	for _, p := range set {
		r := p.InjectionRate(p.EstimatedIPC(bandMissLatency), 1)
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	return lo, hi
}
