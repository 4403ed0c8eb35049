package dram

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTable4RandomAccessLatencies(t *testing.T) {
	// Table 4: DDR4-2400 random access 60.32 ns; 77 K CLL-DRAM 15.84 ns.
	if got := DDR4().RandomAccessNS(); math.Abs(got-60.32) > 1.0 {
		t.Errorf("DDR4 random access = %v ns, want ≈60.32", got)
	}
	if got := CLLDRAM().RandomAccessNS(); math.Abs(got-15.84) > 0.5 {
		t.Errorf("CLL-DRAM random access = %v ns, want ≈15.84", got)
	}
	ratio := DDR4().RandomAccessNS() / CLLDRAM().RandomAccessNS()
	if math.Abs(ratio-3.81) > 0.05 {
		t.Errorf("cryogenic DRAM speedup = %v, want ≈3.8", ratio)
	}
}

func TestRowBufferOutcomes(t *testing.T) {
	ch := NewChannel(DDR4(), 8)
	// Cold access: row miss (bank precharged).
	done1, kind1 := ch.Access(0x1000, 0)
	if kind1 != RowMiss {
		t.Errorf("first access = %v, want miss", kind1)
	}
	// Same bank (8-line stride), same row: hit, and faster.
	done2, kind2 := ch.Access(0x1000+8*64, done1)
	if kind2 != RowHit {
		t.Errorf("same-row access = %v, want hit", kind2)
	}
	if done2-done1 >= done1-0 {
		t.Errorf("row hit (%v ns) not faster than the opening miss (%v ns)", done2-done1, done1)
	}
	// Different row in the same bank: conflict, slowest.
	farAddr := uint64(0x1000 + 8*2048*16) // same bank, different row
	done3, kind3 := ch.Access(farAddr, done2)
	if kind3 != RowConflict {
		t.Errorf("row-conflict access = %v, want conflict", kind3)
	}
	if done3-done2 <= done2-done1 {
		t.Errorf("conflict (%v) should cost more than a hit (%v)", done3-done2, done2-done1)
	}
}

func TestBankSerialization(t *testing.T) {
	ch := NewChannel(DDR4(), 1) // single bank: everything collides
	var last float64
	for i := 0; i < 8; i++ {
		done, _ := ch.Access(uint64(i)*64, 0) // all issued at t=0
		if done <= last {
			t.Fatalf("bank service not serialized: access %d done at %v after %v", i, done, last)
		}
		last = done
	}
}

func TestChannelsParallel(t *testing.T) {
	// Two accesses to different channels issued together should not
	// serialize.
	m := NewMemory(DDR4(), 2, 1)
	d1 := m.Access(0, 0)
	d2 := m.Access(64, 0) // next line → other channel
	if math.Abs(d1-d2) > 1e-9 {
		t.Errorf("independent channels served at %v and %v, want equal", d1, d2)
	}
}

func TestStreamingFavorsRowHits(t *testing.T) {
	m := NewMemory(CLLDRAM(), 4, 8)
	now := 0.0
	kinds := make(map[AccessKind]int)
	for i := 0; i < 512; i++ {
		addr := uint64(i) * 64
		var kind AccessKind
		// Memory.Access's channel routing, keeping the row-buffer outcome.
		now, kind = m.Channels[(addr/64)%uint64(len(m.Channels))].Access(addr, now)
		kinds[kind]++
	}
	if kinds[RowHit] <= kinds[RowConflict] {
		t.Errorf("sequential stream: hits %d should dominate conflicts %d", kinds[RowHit], kinds[RowConflict])
	}
}

func TestRandomTrafficLatencyNearCalibration(t *testing.T) {
	// The average random-access latency of the bank model should stay
	// near the analytic calibration value at low load.
	mem := NewMemory(DDR4(), 8, 8)
	rng := rand.New(rand.NewSource(4))
	var sum float64
	const n = 2000
	now := 0.0
	for i := 0; i < n; i++ {
		addr := uint64(rng.Intn(1<<24) * 64)
		done := mem.Access(addr, now)
		sum += done - now
		now += 100 // low offered load: one access per 100 ns
	}
	avg := sum / n
	want := DDR4().RandomAccessNS()
	if math.Abs(avg-want)/want > 0.25 {
		t.Errorf("random traffic avg latency = %v ns, want near %v", avg, want)
	}
}

func TestAccessMonotoneProperty(t *testing.T) {
	// Completion time never precedes issue time, for any address mix.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMemory(CLLDRAM(), 2, 4)
		now := 0.0
		for i := 0; i < 50; i++ {
			addr := uint64(rng.Intn(1<<20)) * 64
			done := m.Access(addr, now)
			if done < now {
				return false
			}
			now += rng.Float64() * 30
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAccessKindString(t *testing.T) {
	for k, want := range map[AccessKind]string{RowHit: "hit", RowMiss: "miss", RowConflict: "conflict"} {
		if k.String() != want {
			t.Errorf("%d = %q, want %q", int(k), k.String(), want)
		}
	}
	if AccessKind(9).String() == "" {
		t.Error("unknown kind should stringify")
	}
}
