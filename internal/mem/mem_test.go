package mem

import (
	"math"
	"testing"

	"cryowire/internal/phys"
)

func TestTable4MemorySpecs(t *testing.T) {
	m300 := Mem300()
	m77 := Mem77()
	// Table 4 latencies at the 4 GHz reference clock.
	if m300.L1.LatencyCycles != 4 || m300.L2.LatencyCycles != 12 || m300.L3.LatencyCycles != 20 {
		t.Errorf("300K cache latencies wrong: %+v", m300)
	}
	if m77.L1.LatencyCycles != 2 || m77.L2.LatencyCycles != 6 || m77.L3.LatencyCycles != 10 {
		t.Errorf("77K cache latencies wrong: %+v", m77)
	}
	// §6.1.1: 77 K memory = 2× faster caches, 3.8× faster DRAM.
	for _, pair := range [][2]int{
		{m300.L1.LatencyCycles, m77.L1.LatencyCycles},
		{m300.L2.LatencyCycles, m77.L2.LatencyCycles},
		{m300.L3.LatencyCycles, m77.L3.LatencyCycles},
	} {
		if pair[0] != 2*pair[1] {
			t.Errorf("77K cache not 2× faster: %d vs %d", pair[0], pair[1])
		}
	}
	dramRatio := m300.DRAMLatencyNS / m77.DRAMLatencyNS
	if math.Abs(dramRatio-3.81) > 0.05 {
		t.Errorf("DRAM speedup = %v, want ≈3.8", dramRatio)
	}
}

func TestLatencyNS(t *testing.T) {
	c := CacheSpec{LatencyCycles: 20}
	if got := c.LatencyNS(); got != 5.0 {
		t.Errorf("20 cycles @4GHz = %v ns, want 5", got)
	}
}

func TestForTemp(t *testing.T) {
	if h := ForTemp(phys.T300); h.Name != "300K memory" {
		t.Errorf("ForTemp(300K) = %s", h.Name)
	}
	for _, temp := range []phys.Kelvin{phys.T77, phys.T100, phys.T135} {
		if h := ForTemp(temp); h.Name != "77K memory" {
			t.Errorf("ForTemp(%vK) = %s, want 77K memory", temp, h.Name)
		}
	}
}
