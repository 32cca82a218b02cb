package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// BENCHMARK.json, which names the benchmark's command and metrics, must
// list exactly the metrics this program reports, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: unknown or bad why %q", w.Name, w.Why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the table %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, table %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the table %d", len(b.PerLayer), len(layers))
	}
	for i, m := range b.PerLayer {
		d := layers[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, table %+v", i, m, d)
		}
		if d.Moves == "" {
			t.Errorf("per-layer %s has no target", d.Name)
		}
	}
}

// layerTable renders the per-layer targets as the markdown table README.md
// carries.
func layerTable() string {
	var b strings.Builder
	b.WriteString("| metric | unit | better | should move → on |\n|---|---|---|---|\n")
	for _, d := range layers {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", d.Name, d.Unit, d.Better, d.Moves)
	}
	return b.String()
}

// README.md's per-layer table is the layer table, target for target.
func TestReadmeLayerTable(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if want := layerTable(); !strings.Contains(string(data), want) {
		t.Fatalf("README.md's per-layer table is stale; it should read:\n%s", want)
	}
}
