package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
)

// definitionFile is BENCHMARK.json, relative to the repository root the
// benchmark runs from.
const definitionFile = "BENCHMARK.json"

// checkDefinition reports where the benchmark definition at path
// differs from what this program measures: its run length, its
// workloads in order, and its metric rows in order. Every run checks it,
// so the two cannot drift apart unnoticed.
func checkDefinition(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("benchmark definition: %w", err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if spec.RunSeconds != defaultSeconds {
		return fmt.Errorf("%s: run_seconds %g, the program's default is %d", path, spec.RunSeconds, defaultSeconds)
	}
	names := make([]string, len(spec.Workloads))
	for i, w := range spec.Workloads {
		names[i] = w.Name
	}
	want := make([]string, len(workloads))
	for i, w := range workloads {
		want[i] = w.name
	}
	if !reflect.DeepEqual(names, want) {
		return fmt.Errorf("%s: workloads %v, the program runs %v", path, names, want)
	}
	for _, t := range []struct {
		key       string
		got, want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer()}} {
		if !reflect.DeepEqual(t.got, t.want) {
			w, _ := json.Marshal(t.want)
			return fmt.Errorf("%s: %s differs from the program's table; the program measures:\n%s", path, t.key, w)
		}
	}
	return nil
}
