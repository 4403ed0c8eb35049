package server

import (
	"context"
	"net/http"
	"strings"

	"cryowire/internal/experiments"
	"cryowire/internal/sim"
	"cryowire/internal/stage"
	"cryowire/internal/workload"
)

// stageDTO is the request body of POST /v1/stage. All fields are
// optional; the zero body sweeps the three default stage assignments
// at CLI-default simulation lengths, like `cryowire stage`.
type stageDTO struct {
	// Quick selects the shrunk quick-experiment simulations (`-quick`).
	Quick bool `json:"quick"`
	// Workers bounds the parallel simulation fan-out. A scheduling
	// knob: excluded from the cache key because it never changes the
	// result bytes.
	Workers int `json:"workers"`
	// Workload names the profile to evaluate on (default x264).
	Workload string `json:"workload"`
	// WattsPerUnit converts relative power-model units to watts
	// (default 100).
	WattsPerUnit float64 `json:"watts_per_unit"`
	// Assignments override the default three stage assignments.
	Assignments []stage.Assignment `json:"assignments"`
	// Config overrides the simulation run-length/seed.
	Config struct {
		WarmupCycles  int   `json:"warmup_cycles"`
		MeasureCycles int   `json:"measure_cycles"`
		Seed          int64 `json:"seed"`
	} `json:"config"`
}

// stageAssignmentCap bounds how many assignments one synchronous
// request may simulate.
const stageAssignmentCap = 64

// resolve turns the DTO into the sweep inputs, validating everything
// that should fail at parse time (400/404) rather than from inside the
// cached computation.
func (d stageDTO) resolve() ([]stage.Assignment, stage.SweepOptions, error) {
	if d.Workers < 0 {
		return nil, stage.SweepOptions{}, badRequest("workers must be >= 0")
	}
	if d.WattsPerUnit < 0 {
		return nil, stage.SweepOptions{}, badRequest("watts_per_unit must be >= 0")
	}
	if d.Config.WarmupCycles < 0 || d.Config.MeasureCycles < 0 {
		return nil, stage.SweepOptions{}, badRequest("cycle counts must be >= 0")
	}
	if len(d.Assignments) > stageAssignmentCap {
		return nil, stage.SweepOptions{}, badRequest("request sweeps %d assignments, server cap is %d", len(d.Assignments), stageAssignmentCap)
	}
	assigns := d.Assignments
	if len(assigns) == 0 {
		assigns = stage.DefaultAssignments()
	}
	for _, a := range assigns {
		if err := a.Validate(); err != nil {
			return nil, stage.SweepOptions{}, badRequest("%v", err)
		}
	}
	if d.Workload != "" {
		if _, err := workload.ByName(d.Workload); err != nil {
			return nil, stage.SweepOptions{}, notFound("%v", err)
		}
	}
	cfg := sim.DefaultConfig()
	if d.Quick {
		cfg = experiments.QuickOptions().Sim
	}
	if d.Config.WarmupCycles > 0 {
		cfg.WarmupCycles = d.Config.WarmupCycles
	}
	if d.Config.MeasureCycles > 0 {
		cfg.MeasureCycles = d.Config.MeasureCycles
	}
	if d.Config.Seed != 0 {
		cfg.Seed = d.Config.Seed
	}
	return assigns, stage.SweepOptions{
		Sim:          cfg,
		Workload:     d.Workload,
		Workers:      d.Workers,
		WattsPerUnit: d.WattsPerUnit,
	}, nil
}

// canonicalStage renders the resolved sweep canonically for the cache
// key. Workers is a scheduling knob and excluded: the sweep's
// determinism contract says it never changes the bytes.
func canonicalStage(assigns []stage.Assignment, opt stage.SweepOptions) string {
	fields := []string{
		opt.Workload, canonFloat(opt.WattsPerUnit),
		canonInt(opt.Sim.WarmupCycles), canonInt(opt.Sim.MeasureCycles), canonInt64(opt.Sim.Seed),
	}
	for _, a := range assigns {
		fields = append(fields, strings.Join([]string{a.Name, canonFloat(a.TierK), canonFloat(a.MemK)}, ":"))
	}
	return canonicalKey("stage", fields...)
}

// handleStage runs one temperature-staged sweep and responds with
// stage.SweepResult.JSON — byte-identical to `cryowire stage -json`
// for the same parameters.
func (s *Server) handleStage(w http.ResponseWriter, r *http.Request) {
	var dto stageDTO
	if err := decodeStrict(r, &dto); err != nil {
		writeError(w, errorStatus(err), err.Error())
		return
	}
	assigns, opt, err := dto.resolve()
	if err != nil {
		writeError(w, errorStatus(err), err.Error())
		return
	}
	s.serveCached(w, r, canonicalStage(assigns, opt), func(ctx context.Context) ([]byte, error) {
		res, err := s.runStage(ctx, assigns, opt)
		if err != nil {
			return nil, err
		}
		b, err := res.JSON()
		if err != nil {
			return nil, err
		}
		// Match `cryowire stage -json` stdout (fmt.Println adds \n).
		return append(b, '\n'), nil
	})
}
