package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON is the layout of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// fromSource renders BENCHMARK.json from the tables the program reports
// from, so the file and the program cannot name different metrics.
func fromSource() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 20,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.name, w.why})
	}
	return b
}

// TestBenchmarkJSONMatchesSource fails when ../BENCHMARK.json and the
// source tables disagree. UPDATE_BENCHMARK_JSON=1 rewrites the file.
func TestBenchmarkJSONMatchesSource(t *testing.T) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(fromSource()); err != nil {
		t.Fatal(err)
	}
	if os.Getenv("UPDATE_BENCHMARK_JSON") == "1" {
		if err := os.WriteFile("../BENCHMARK.json", buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf.Bytes()) {
		t.Fatalf("BENCHMARK.json differs from the source tables; run UPDATE_BENCHMARK_JSON=1 go test -run TestBenchmarkJSONMatchesSource")
	}
}

// TestBenchmarkJSONLimits checks the contract's limits that a typo in a
// table could break.
func TestBenchmarkJSONLimits(t *testing.T) {
	b := fromSource()
	seen := map[string]bool{}
	name := func(kind, n string) {
		if n == "" || len(n) > 64 || strings.Trim(n, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-") != "" || strings.ContainsAny(n[:1], "_.-") {
			t.Errorf("%s name %q is outside the contract", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Errorf("%d workloads", len(b.Workloads))
	}
	for _, w := range b.Workloads {
		name("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range b.EndToEnd {
		name("end-to-end", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s, better lower")
	}
	if len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(b.EndToEnd), len(b.PerLayer))
	}
	for _, m := range append(append([]metricDef(nil), b.EndToEnd...), b.PerLayer...) {
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Unit == "" || len(m.Unit) > 16 || strings.Trim(m.Unit, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_/%.-") != "" {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
	for _, m := range b.PerLayer {
		name("per-layer", m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
}

// TestReadmeNamesEveryMetric keeps README.md's definitions complete.
func TestReadmeNamesEveryMetric(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !bytes.Contains(readme, []byte("`"+m.Name+"`")) {
			t.Errorf("README.md does not define %s", m.Name)
		}
	}
	for _, w := range workloads {
		if !bytes.Contains(readme, []byte("`"+w.name+"`")) {
			t.Errorf("README.md does not describe workload %s", w.name)
		}
	}
}
