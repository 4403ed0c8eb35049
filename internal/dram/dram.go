// Package dram models main-memory timing: banked DRAM devices with
// row-buffer management and per-bank occupancy, for the two memory
// technologies of Table 4 — DDR4-2400 at 300 K and a CLL-DRAM-like
// cryogenic part at 77 K (Lee et al. [37]: reduced wordline/bitline
// resistance collapses the core timings, giving the 3.8× faster random
// access the paper quotes).
package dram

import (
	"fmt"
	"math"
)

// Timing holds the device timing parameters in nanoseconds.
type Timing struct {
	Name string
	// Core timings.
	TRCD float64 // activate → column command
	TCAS float64 // column command → first data
	TRP  float64 // precharge
	TRAS float64 // activate → precharge (row restore)
	// TBurst is the data-burst transfer time for one cache line.
	TBurst float64
	// TCtrl is the controller + channel + PHY overhead per access.
	TCtrl float64
}

// DDR4 returns the 300 K DDR4-2400 timing (17-17-17 at 1200 MHz plus
// controller overhead, calibrated so the random-access latency matches
// Table 4's 60.32 ns).
func DDR4() Timing {
	return Timing{
		Name: "DDR4-2400",
		TRCD: 14.16, TCAS: 14.16, TRP: 14.16, TRAS: 32,
		TBurst: 3.33, TCtrl: 21.5,
	}
}

// CLLDRAM returns the 77 K cryogenic DRAM timing: the cold wordlines,
// bitlines and transistors let every core timing shrink, calibrated to
// Table 4's 15.84 ns random access (3.8× faster than DDR4).
func CLLDRAM() Timing {
	d := DDR4()
	const k = 3.808
	return Timing{
		Name: "CLL-DRAM (77K)",
		TRCD: d.TRCD / k, TCAS: d.TCAS / k, TRP: d.TRP / k, TRAS: d.TRAS / k,
		TBurst: d.TBurst / k, TCtrl: d.TCtrl / k,
	}
}

// RandomAccessNS returns the average closed-row random access latency:
// controller + activate + column + burst, with half the accesses
// finding the bank needing a precharge first.
func (t Timing) RandomAccessNS() float64 {
	return t.TCtrl + 0.5*t.TRP + t.TRCD + t.TCAS + t.TBurst
}

// AccessKind classifies one access's row-buffer outcome.
type AccessKind int

// Row-buffer outcomes.
const (
	RowHit AccessKind = iota
	RowMiss
	RowConflict
)

// String implements fmt.Stringer.
func (k AccessKind) String() string {
	switch k {
	case RowHit:
		return "hit"
	case RowMiss:
		return "miss"
	case RowConflict:
		return "conflict"
	default:
		return fmt.Sprintf("AccessKind(%d)", int(k))
	}
}

// Channel is one memory channel with open-page banks.
type Channel struct {
	timing Timing
	banks  []bank
	// RowBytes sets the row-buffer span for address mapping.
	rowBytes uint64
}

type bank struct {
	openRow int64 // -1 = precharged
	busyNS  float64
	// activatedAt tracks tRAS: a row must stay open long enough to
	// restore before precharge.
	activatedAt float64
}

// NewChannel builds a channel with the given bank count.
func NewChannel(t Timing, banks int) *Channel {
	if banks < 1 {
		banks = 1
	}
	ch := &Channel{timing: t, banks: make([]bank, banks), rowBytes: 2048}
	for i := range ch.banks {
		ch.banks[i].openRow = -1
	}
	return ch
}

// mapAddr splits an address into (bank, row).
func (c *Channel) mapAddr(addr uint64) (int, int64) {
	line := addr / 64
	b := int(line % uint64(len(c.banks)))
	row := int64(addr / c.rowBytes / uint64(len(c.banks)))
	return b, row
}

// Access issues a read at time nowNS and returns its completion time
// and row-buffer outcome. Per-bank occupancy serializes conflicting
// accesses (FR-FCFS is approximated by in-order per-bank service).
func (c *Channel) Access(addr uint64, nowNS float64) (doneNS float64, kind AccessKind) {
	bi, row := c.mapAddr(addr)
	b := &c.banks[bi]
	start := math.Max(nowNS, b.busyNS)
	t := c.timing
	var lat float64
	switch {
	case b.openRow == row:
		kind = RowHit
		lat = t.TCAS + t.TBurst
	case b.openRow == -1:
		kind = RowMiss
		lat = t.TRCD + t.TCAS + t.TBurst
		b.activatedAt = start
	default:
		kind = RowConflict
		// Respect tRAS for the currently open row before precharging.
		restore := b.activatedAt + t.TRAS
		if restore > start {
			start = restore
		}
		lat = t.TRP + t.TRCD + t.TCAS + t.TBurst
		b.activatedAt = start + t.TRP
	}
	b.openRow = row
	done := start + lat
	// The bank is busy until the access data phase completes.
	b.busyNS = done
	return done + t.TCtrl, kind
}

// Memory is a multi-channel main memory front end.
type Memory struct {
	Channels []*Channel
}

// NewMemory builds the default organization: nChannels × nBanks.
func NewMemory(t Timing, nChannels, nBanks int) *Memory {
	if nChannels < 1 {
		nChannels = 1
	}
	m := &Memory{}
	for i := 0; i < nChannels; i++ {
		m.Channels = append(m.Channels, NewChannel(t, nBanks))
	}
	return m
}

// Access routes an address to its channel and issues the read.
func (m *Memory) Access(addr uint64, nowNS float64) float64 {
	ch := m.Channels[(addr/64)%uint64(len(m.Channels))]
	done, _ := ch.Access(addr, nowNS)
	return done
}
