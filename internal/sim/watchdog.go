package sim

import "fmt"

// Watchdog configures the deadlock/livelock detector that guards
// System.Run. The zero value enables the detector with defaults; set
// Disabled to run unguarded.
type Watchdog struct {
	// Disabled turns the detector off.
	Disabled bool
	// CheckInterval is how often (in NoC cycles) the detector samples
	// the system (default 1000).
	CheckInterval int
	// NoProgressCycles is the window with neither a committed
	// instruction nor a completed transaction after which the run is
	// declared stalled (default 4000).
	NoProgressCycles int
	// MaxPacketAge is the in-flight packet age ceiling in cycles
	// (default 25000 — far above any healthy delivery, including a
	// fully backed-off retransmit chain).
	MaxPacketAge int64
}

// Watchdog defaults.
const (
	defaultCheckInterval    = 1000
	defaultNoProgressCycles = 4000
	defaultMaxPacketAge     = 25000
)

// withDefaults fills zero fields.
func (w Watchdog) withDefaults() Watchdog {
	if w.CheckInterval <= 0 {
		w.CheckInterval = defaultCheckInterval
	}
	if w.NoProgressCycles <= 0 {
		w.NoProgressCycles = defaultNoProgressCycles
	}
	if w.MaxPacketAge <= 0 {
		w.MaxPacketAge = defaultMaxPacketAge
	}
	return w
}

// StallError is the watchdog's cycle-stamped diagnosis of a deadlocked
// or livelocked simulation.
type StallError struct {
	Design   string
	Workload string
	// Cycle is when the detector fired.
	Cycle int64
	// Reason is the tripped check, human-readable.
	Reason string
	// OldestPacketAge is the age of the oldest in-flight packet at the
	// time of the diagnosis.
	OldestPacketAge int64
	// InflightPackets and OutstandingTxns size the stuck state.
	InflightPackets int
	OutstandingTxns int
}

// Error implements error.
func (e *StallError) Error() string {
	return fmt.Sprintf("sim: %s/%s stalled at cycle %d: %s (%d packets in flight, oldest %d cycles old, %d outstanding txns)",
		e.Design, e.Workload, e.Cycle, e.Reason, e.InflightPackets, e.OldestPacketAge, e.OutstandingTxns)
}

// watchdogState is the detector's sampling memory.
type watchdogState struct {
	cfg Watchdog
	// lastProgressAt is the last sample cycle at which committed
	// instructions or completed transactions had advanced.
	lastProgressAt int64
	lastCommitted  float64
	lastCompleted  int64
}

// stallError assembles the diagnosis. In-flight packets live in the
// slot table (free slots have a nil t), so the scan skips holes.
func (s *System) stallError(reason string) *StallError {
	oldest := int64(0)
	for i := range s.slots {
		sl := &s.slots[i]
		if sl.t == nil {
			continue
		}
		if age := s.now - sl.injectedAt; age > oldest {
			oldest = age
		}
	}
	outstanding := 0
	for i := range s.cores {
		outstanding += len(s.cores[i].txns)
	}
	return &StallError{
		Design:          s.design.Name,
		Workload:        s.prof.Name,
		Cycle:           s.now,
		Reason:          reason,
		OldestPacketAge: oldest,
		InflightPackets: s.inflightN,
		OutstandingTxns: outstanding,
	}
}

// checkWatchdog runs the detector's three checks. Call every
// CheckInterval cycles; returns nil while the system is live.
func (s *System) checkWatchdog(w *watchdogState) *StallError {
	committed := s.totalCommitted()
	// Progress: either commits or transaction completions count —
	// during a barrier storm no core commits, but transactions keep
	// completing, which is forward progress.
	if committed > w.lastCommitted || s.completed > w.lastCompleted {
		w.lastCommitted = committed
		w.lastCompleted = s.completed
		w.lastProgressAt = s.now
	} else if s.now-w.lastProgressAt >= int64(w.cfg.NoProgressCycles) {
		return s.stallError(fmt.Sprintf("no instruction commits or transaction completions for %d cycles", s.now-w.lastProgressAt))
	}
	// Packet age: a delivery taking this long means the message is
	// circling or wedged, not merely queued. The watchdog only samples
	// every CheckInterval cycles, so the slot-table scan stays far off
	// the cycle loop's profile.
	for i := range s.slots {
		sl := &s.slots[i]
		if sl.t == nil {
			continue
		}
		if age := s.now - sl.injectedAt; age > w.cfg.MaxPacketAge {
			return s.stallError(fmt.Sprintf("in-flight packet %d aged %d cycles (ceiling %d)", sl.id, age, w.cfg.MaxPacketAge))
		}
	}
	// Credit leak: every outstanding token must be backed by a live
	// transaction, or completions have been lost and the MLP window
	// will wedge shut.
	for i := range s.cores {
		c := &s.cores[i]
		if c.outstanding != len(c.txns) {
			return s.stallError(fmt.Sprintf("core %d leaked credits: %d outstanding vs %d live transactions", i, c.outstanding, len(c.txns)))
		}
	}
	return nil
}
