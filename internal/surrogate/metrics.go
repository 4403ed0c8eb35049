package surrogate

import "sync/atomic"

// Package-wide counters, monotonic since process start, rendered by
// the server's /metrics as cryowire_surrogate_* — the same pattern as
// the sim batch stats.
type counters struct {
	fits        atomic.Uint64
	predictions atomic.Uint64
	simsSkipped atomic.Uint64
}

var stats counters

// AddSkipped records simulations a screening strategy decided not to
// run because the surrogate placed them outside the predicted Pareto
// band — the package's headline savings number.
func AddSkipped(n int) {
	if n > 0 {
		stats.simsSkipped.Add(uint64(n))
	}
}

// Stats is a snapshot of the package counters.
type Stats struct {
	// Fits counts models fitted from journals or in-run history.
	Fits uint64
	// Predictions counts Predict calls (exact journal hits included).
	Predictions uint64
	// SimsSkipped counts simulations screening strategies skipped.
	SimsSkipped uint64
}

// ReadStats snapshots the package-wide counters.
func ReadStats() Stats {
	return Stats{
		Fits:        stats.fits.Load(),
		Predictions: stats.predictions.Load(),
		SimsSkipped: stats.simsSkipped.Load(),
	}
}
