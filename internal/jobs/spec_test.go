package jobs

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"cryowire/internal/dse"
)

// TestSpecSurrogateRoundTrip: the surrogate fields survive the
// config -> spec -> JSON -> spec -> config round-trip a durable job
// makes, and specs without them marshal without the new keys (so specs
// written before the surrogate existed rewrite byte-identically).
func TestSpecSurrogateRoundTrip(t *testing.T) {
	space := dse.DefaultSpace(true)
	cfg := dse.Config{
		Space:        space,
		Strategy:     dse.StrategyScreen,
		Budget:       8,
		Seed:         5,
		Priors:       []string{"a.jsonl", "b.jsonl"},
		ScreenMargin: 0.15,
	}
	cfg.Sim.WarmupCycles, cfg.Sim.MeasureCycles, cfg.Sim.Seed = 400, 1600, 1

	sp := SpecFromConfig(cfg)
	if !reflect.DeepEqual(sp.Prior, cfg.Priors) || sp.ScreenMargin != cfg.ScreenMargin {
		t.Fatalf("SpecFromConfig dropped surrogate fields: %+v", sp)
	}
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.Config()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Priors, cfg.Priors) || got.ScreenMargin != cfg.ScreenMargin {
		t.Fatalf("spec round-trip lost surrogate fields: priors=%v margin=%v", got.Priors, got.ScreenMargin)
	}

	// A spec without surrogate fields must not grow the new keys.
	plain := cfg
	plain.Strategy = dse.StrategyGrid
	plain.Priors, plain.ScreenMargin = nil, 0
	pb, err := json.Marshal(SpecFromConfig(plain))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(pb, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"prior", "screen_margin"} {
		if _, ok := m[k]; ok {
			t.Fatalf("plain spec marshals key %q; omitempty broken, old specs would rewrite differently", k)
		}
	}
}

// TestSpecCheckpointEveryRoundTrip: the checkpoint cadence survives
// the spec's JSON round-trip, and a spec without one marshals without
// the key (omitempty keeps older spec files byte-stable on rewrite).
func TestSpecCheckpointEveryRoundTrip(t *testing.T) {
	b, err := json.Marshal(testSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "checkpoint_every") {
		t.Fatalf("plain spec serialized checkpoint_every: %s", b)
	}

	sp := testSpec(0)
	sp.CheckpointEvery = 3
	if b, err = json.Marshal(sp); err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	cfg, err := back.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.CheckpointEvery != 3 || SpecFromConfig(cfg).CheckpointEvery != 3 {
		t.Fatalf("checkpoint_every lost in round trip: %s", b)
	}
}

// rangedSpecJSON is testSpec(0) as an earlier release wrote it for a
// job restricted to the point indexes [1, 3).
const rangedSpecJSON = `{
  "strategy": "grid",
  "budget": 0,
  "seed": 1,
  "temps_k": [300, 77],
  "modes": ["nominal", "cryosp"],
  "depths": [14, 17],
  "nets": ["mesh", "cryobus"],
  "workloads": ["x264"],
  "warmup_cycles": 300,
  "measure_cycles": 900,
  "sim_seed": 1,
  "workers": 2,
  "range_start": 1,
  "range_end": 3
}
`

// TestRetiredSpecFields: a spec carrying a retired point-index range
// fails to decode with a typed error naming the field, because running
// it would search the whole space. Retired fields that never changed a
// result are ignored.
func TestRetiredSpecFields(t *testing.T) {
	for _, c := range []struct{ body, field string }{
		{rangedSpecJSON, "range_start"},
		{`{"strategy": "grid", "range_end": 4}`, "range_end"},
	} {
		var sp Spec
		err := json.Unmarshal([]byte(c.body), &sp)
		var rf *RetiredFieldError
		if !errors.As(err, &rf) || rf.Field != c.field || !strings.Contains(err.Error(), c.field) {
			t.Errorf("decode err = %v, want a *RetiredFieldError naming %q", err, c.field)
		}
	}

	want := testSpec(0)
	b, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.TrimSuffix(string(b), "}") +
		`,"shards":2,"replicas":["http://127.0.0.1:1"],"batch_lanes":4,"range_start":0,"range_end":0}`
	var got Spec
	if err := json.Unmarshal([]byte(old), &got); err != nil {
		t.Fatalf("spec with harmless retired fields: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
}

// FuzzSpecConfig feeds arbitrary bytes through the store's spec decode
// and resolution — spec.json crosses a process boundary on recovery.
// Rejection is always allowed; a panic never is, and an accepted spec
// promises a job total inside its space.
func FuzzSpecConfig(f *testing.F) {
	plain, err := json.Marshal(testSpec(3))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(plain)
	f.Add([]byte(rangedSpecJSON))
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp Spec
		if err := json.Unmarshal(data, &sp); err != nil {
			return
		}
		cfg, err := sp.Config()
		if err != nil {
			return
		}
		if total, size := sp.Total(), cfg.Space.Size(); total < 0 || total > size {
			t.Fatalf("Total() = %d outside [0, %d] for %s", total, size, data)
		}
	})
}
