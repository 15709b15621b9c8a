package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// spec is the part of BENCHMARK.json the benchmark reads: the
// workloads, and the metrics it reports with their units, directions
// and (end to end) regression bounds.
type spec struct {
	Workloads []specEntry `json:"workloads"`
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
}

type specEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the base median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
