// Package mem provides the memory-side timing models: the 300 K and
// 77 K cache/DRAM hierarchies of Table 4. The 77 K hierarchy reflects
// the prior cryogenic memory work the paper builds on (CryoCache [43],
// CLL-DRAM [37]): twice-faster caches and 3.8×-faster DRAM.
package mem

import "cryowire/internal/phys"

// CacheSpec is one cache level's timing at the reference 4 GHz clock.
type CacheSpec struct {
	Name          string
	SizeKB        int
	LatencyCycles int // at the 4 GHz reference clock of Table 4
}

// LatencyNS converts the reference-clock latency to nanoseconds.
func (c CacheSpec) LatencyNS() float64 {
	const refGHz = 4.0
	return float64(c.LatencyCycles) / refGHz
}

// Hierarchy is a full memory hierarchy (Table 4, memory specification).
type Hierarchy struct {
	Name          string
	Temp          phys.Kelvin
	L1, L2, L3    CacheSpec
	DRAMLatencyNS float64 // random access latency
}

// Mem300 returns the 300 K hierarchy: i7-6700 caches + DDR4-2400.
func Mem300() Hierarchy {
	return Hierarchy{
		Name: "300K memory", Temp: phys.T300,
		L1:            CacheSpec{Name: "L1", SizeKB: 32, LatencyCycles: 4},
		L2:            CacheSpec{Name: "L2", SizeKB: 256, LatencyCycles: 12},
		L3:            CacheSpec{Name: "L3/core", SizeKB: 1024, LatencyCycles: 20},
		DRAMLatencyNS: 60.32,
	}
}

// Mem77 returns the 77 K hierarchy: cryogenic SRAM caches (2× faster)
// and CLL-DRAM (3.8× faster random access).
func Mem77() Hierarchy {
	return Hierarchy{
		Name: "77K memory", Temp: phys.T77,
		L1:            CacheSpec{Name: "L1", SizeKB: 32, LatencyCycles: 2},
		L2:            CacheSpec{Name: "L2", SizeKB: 256, LatencyCycles: 6},
		L3:            CacheSpec{Name: "L3/core", SizeKB: 1024, LatencyCycles: 10},
		DRAMLatencyNS: 15.84,
	}
}

// ForTemp returns the hierarchy matching a design temperature: 300 K
// designs use Mem300, cryogenic designs the 77 K-optimized memory.
func ForTemp(t phys.Kelvin) Hierarchy {
	if t < phys.T300 {
		return Mem77()
	}
	return Mem300()
}
