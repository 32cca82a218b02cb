package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func seededRuns(name, kind string, seed0 int64, medians ...float64) []seeded {
	out := make([]seeded, len(medians))
	for i, m := range medians {
		out[i] = seeded{Metric: Metric{Name: name, Unit: "s", Better: "lower", Kind: kind, Summary: Summary{Median: m}}, Seed: seed0 + int64(i)}
	}
	return out
}

func TestVerdicts(t *testing.T) {
	steady := []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.1, 9.9, 10, 10}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{6, 14, 8, 12, 10, 7, 13, 9, 11, 10}
	for _, tc := range []struct {
		name     string
		old, cur []float64
		want     string
	}{
		{"slower beyond the bound", steady, scale(1.3), "worse"},
		{"faster, ranges apart", steady, scale(0.7), "better"},
		{"within the bound", steady, scale(1.01), "unchanged"},
		{"spread wider than the bound", noisy, scale(1.02), "unresolved"},
	} {
		old := seededRuns("wall_s", KindEndToEnd, 1, tc.old...)
		cur := seededRuns("wall_s", KindEndToEnd, 1, tc.cur...)
		if got := verdict(old[0].Metric, old, cur, side(old), side(cur)); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}

	// A per-layer metric has no bound: apart ranges decide, else unresolved.
	old := seededRuns("app.render_ns", KindLayer, 1, steady...)
	if got := verdict(old[0].Metric, old, seededRuns("app.render_ns", KindLayer, 1, scale(1.05)...), side(old), side(seededRuns("app.render_ns", KindLayer, 1, scale(1.05)...))); got != "worse" {
		t.Errorf("unbounded metric moved apart: verdict %q, want worse", got)
	}
}

func TestExactVerdictComparesSeedBySeed(t *testing.T) {
	old := seededRuns("coverage_gain_pct", KindWorkload, 1, 4.2, -3.1, 7)
	same := seededRuns("coverage_gain_pct", KindWorkload, 1, 4.2, -3.1, 7)
	moved := seededRuns("coverage_gain_pct", KindWorkload, 1, 4.2, -3.0, 7)
	if got := exactVerdict(old, same); got != "identical on 3 seeds" {
		t.Errorf("same values: %q", got)
	}
	if got := exactVerdict(old, moved); got != "changed on 1 of 3 seeds" {
		t.Errorf("one moved value: %q", got)
	}
	if got := exactVerdict(old, seededRuns("coverage_gain_pct", KindWorkload, 10, 1)); !strings.HasPrefix(got, "unresolved") {
		t.Errorf("no shared seed: %q", got)
	}
}

func TestCompareReadsResultFilesAndDirectories(t *testing.T) {
	dir := t.TempDir()
	write := func(sub string, seed int64, wall float64) {
		r := &Result{Workload: "grid", Seed: seed, Metrics: []Metric{
			{Name: "wall_s", Unit: "s", Better: "lower", Kind: KindEndToEnd, Summary: Summarize([]float64{wall, wall * 1.01, wall * 0.99})},
		}}
		if err := r.writeFile(filepath.Join(dir, sub, "grid-"+string(rune('a'+seed))+".json")); err != nil {
			t.Fatal(err)
		}
	}
	for s := int64(0); s < 5; s++ {
		write("old", s, 10)
		write("new", s, 14)
	}
	var out bytes.Buffer
	if err := compareMain([]string{filepath.Join(dir, "old"), filepath.Join(dir, "new")}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wall_s") || !strings.Contains(out.String(), "worse") {
		t.Fatalf("compare output lacks the worse wall_s row:\n%s", out.String())
	}
	out.Reset()
	if err := compareMain([]string{filepath.Join(dir, "old", "grid-a.json"), filepath.Join(dir, "new", "grid-a.json")}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "worse") {
		t.Fatalf("single-file compare lacks the verdict:\n%s", out.String())
	}
}
