package harness

import (
	"bytes"
	"reflect"
	"testing"

	"taopt/internal/app"
	"taopt/internal/apps"
	"taopt/internal/sim"
)

func tinyConfig() CampaignConfig {
	return CampaignConfig{
		Apps:     []string{"Filters For Selfie"},
		Tools:    []string{"monkey"},
		Duration: 6 * sim.Duration(60e9),
		Seed:     2,
	}
}

func mustCellT(t *testing.T, c *Campaign, app, tool string, s Setting) *CellSummary {
	t.Helper()
	cell, err := c.Cell(app, tool, s)
	if err != nil {
		t.Fatal(err)
	}
	return cell
}

func TestCampaignCellCaching(t *testing.T) {
	c := NewCampaign(tinyConfig())
	a, err := c.Cell("Filters For Selfie", "monkey", BaselineParallel)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Cell("Filters For Selfie", "monkey", BaselineParallel)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second Cell call must return the cached summary")
	}
	if a.Union == 0 || len(a.Timeline) == 0 {
		t.Fatal("summary not populated")
	}
}

func TestCampaignBaselineCellsCarryTable1Data(t *testing.T) {
	c := NewCampaign(tinyConfig())
	base := mustCellT(t, c, "Filters For Selfie", "monkey", BaselineParallel)
	if base.OfflineSubspaces == 0 {
		t.Fatal("baseline cell missing the offline subspace partition")
	}
	total := 0
	for _, v := range base.OverlapHist {
		total += v
	}
	if total != base.OfflineSubspaces {
		t.Fatalf("histogram sums to %d, want %d subspaces", total, base.OfflineSubspaces)
	}
	opt := mustCellT(t, c, "Filters For Selfie", "monkey", TaOPTDuration)
	if opt.OverlapHist != nil {
		t.Fatal("non-baseline cells must not compute Table 1 data")
	}
}

func TestCampaignUnknownApp(t *testing.T) {
	c := NewCampaign(tinyConfig())
	if _, err := c.Cell("NopeApp", "monkey", BaselineParallel); err == nil {
		t.Fatal("unknown app must error")
	}
}

func TestCampaignDeterministicAcrossInstances(t *testing.T) {
	r1 := mustCellT(t, NewCampaign(tinyConfig()), "Filters For Selfie", "monkey", TaOPTDuration)
	r2 := mustCellT(t, NewCampaign(tinyConfig()), "Filters For Selfie", "monkey", TaOPTDuration)
	if r1.Union != r2.Union || r1.UniqueCrashes != r2.UniqueCrashes || r1.DistinctUIs != r2.DistinctUIs {
		t.Fatalf("campaign cells not reproducible: %+v vs %+v", r1, r2)
	}
}

func TestCampaignSeedChangesResults(t *testing.T) {
	cfg1 := tinyConfig()
	cfg2 := tinyConfig()
	cfg2.Seed = 99
	a := mustCellT(t, NewCampaign(cfg1), "Filters For Selfie", "monkey", BaselineParallel)
	b := mustCellT(t, NewCampaign(cfg2), "Filters For Selfie", "monkey", BaselineParallel)
	if a.Union == b.Union && a.DistinctUIs == b.DistinctUIs && a.UIOccAverage == b.UIOccAverage {
		t.Fatal("different campaign seeds produced identical cells")
	}
}

func TestFleetCampaignParallelMatchesSerial(t *testing.T) {
	build := func(workers int) (*Campaign, *bytes.Buffer) {
		cfg := tinyConfig()
		cfg.Apps = []string{"Filters For Selfie", "Marvel Comics"}
		cfg.Workers = workers
		var progress bytes.Buffer
		cfg.Progress = &progress
		return NewCampaign(cfg), &progress
	}
	settings := []Setting{BaselineParallel, TaOPTDuration}

	serial, serialLog := build(1)
	if err := serial.Prefetch(nil, settings...); err != nil {
		t.Fatal(err)
	}
	par, parLog := build(4)
	if err := par.Prefetch(nil, settings...); err != nil {
		t.Fatal(err)
	}

	if serialLog.String() != parLog.String() {
		t.Fatalf("progress streams differ:\nserial:\n%s\nparallel:\n%s", serialLog, parLog)
	}
	for _, appName := range serial.Apps() {
		for _, setting := range settings {
			a := mustCellT(t, serial, appName, "monkey", setting)
			b := mustCellT(t, par, appName, "monkey", setting)
			if a.Union != b.Union || a.UniqueCrashes != b.UniqueCrashes ||
				a.DistinctUIs != b.DistinctUIs || a.UIOccAverage != b.UIOccAverage ||
				a.WallUsed != b.WallUsed || a.MachineUsed != b.MachineUsed ||
				a.Subspaces != b.Subspaces || len(a.Timeline) != len(b.Timeline) {
				t.Fatalf("cell %s differs between serial and parallel campaigns:\n%+v\nvs\n%+v",
					a.Key, a, b)
			}
		}
	}
}

// TestFleetStatsCellsComputedWorkerInvariance pins the accounting half of
// the fleet determinism guarantee: how many cells a Prefetch simulates is a
// property of the grid, never of the pool width — only JobsPerWorker (racy
// by design) may differ between worker counts.
func TestFleetStatsCellsComputedWorkerInvariance(t *testing.T) {
	settings := []Setting{BaselineParallel, TaOPTDuration}
	wantCells := 2 * len(settings) // two apps × two settings

	var baseline FleetStats
	for i, workers := range []int{1, 2, 4} {
		cfg := tinyConfig()
		cfg.Apps = []string{"Filters For Selfie", "Marvel Comics"}
		cfg.Workers = workers
		c := NewCampaign(cfg)
		if err := c.Prefetch(nil, settings...); err != nil {
			t.Fatal(err)
		}
		st := c.FleetStats()
		if st.CellsComputed != wantCells {
			t.Fatalf("workers=%d: CellsComputed = %d, want %d", workers, st.CellsComputed, wantCells)
		}
		if st.CacheHits != 0 {
			t.Fatalf("workers=%d: fresh prefetch recorded %d cache hits", workers, st.CacheHits)
		}
		// Re-reading a prefetched cell must hit the cache, not recompute.
		mustCellT(t, c, "Marvel Comics", "monkey", TaOPTDuration)
		st = c.FleetStats()
		if st.CellsComputed != wantCells || st.CacheHits != 1 {
			t.Fatalf("workers=%d after cached read: CellsComputed = %d, CacheHits = %d, want %d and 1",
				workers, st.CellsComputed, st.CacheHits, wantCells)
		}
		if i == 0 {
			baseline = st
			continue
		}
		if st.CellsComputed != baseline.CellsComputed || st.CacheHits != baseline.CacheHits {
			t.Fatalf("workers=%d stats {cells=%d hits=%d} diverge from serial {cells=%d hits=%d}",
				workers, st.CellsComputed, st.CacheHits, baseline.CellsComputed, baseline.CacheHits)
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	run := func() *RunResult {
		res, err := Run(RunConfig{
			App:      mustLoad(t, "Marvel Comics"),
			Tool:     "wctester",
			Setting:  TaOPTDuration,
			Duration: 8 * sim.Duration(60e9),
			Seed:     7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Union.Count() != b.Union.Count() {
		t.Fatalf("coverage differs: %d vs %d", a.Union.Count(), b.Union.Count())
	}
	if len(a.Instances) != len(b.Instances) {
		t.Fatalf("instance counts differ: %d vs %d", len(a.Instances), len(b.Instances))
	}
	for i := range a.Instances {
		if a.Instances[i].Trace.Len() != b.Instances[i].Trace.Len() {
			t.Fatalf("instance %d trace lengths differ", i)
		}
	}
	if len(a.Subspaces) != len(b.Subspaces) {
		t.Fatal("subspace counts differ")
	}
}

func TestMachineTimeMatchesInstanceSum(t *testing.T) {
	res, err := Run(RunConfig{
		App:      mustLoad(t, "Filters For Selfie"),
		Tool:     "monkey",
		Setting:  BaselineParallel,
		Duration: 6 * sim.Duration(60e9),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum sim.Duration
	for _, inst := range res.Instances {
		sum += inst.Released - inst.Allocated
	}
	if sum != res.MachineUsed {
		t.Fatalf("machine time %v != per-instance sum %v", res.MachineUsed, sum)
	}
}

func mustLoad(t *testing.T, name string) *app.App {
	t.Helper()
	a, err := apps.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestFleetPooledCellsShareOneApp checks that a campaign generates each app,
// catalog or inline, once, that its pooled cells share the one *app.App, and
// that sharing changes no result: every cell equals the same cell of a
// campaign that computes only it, on an app of its own. Under -race it also
// checks that no cell writes to the shared app.
func TestFleetPooledCellsShareOneApp(t *testing.T) {
	entry, err := apps.Lookup("Marvel Comics")
	if err != nil {
		t.Fatal(err)
	}
	spec := entry.Spec
	spec.Name = "Inline Marvel"
	cfg := tinyConfig()
	cfg.Apps = []string{"Filters For Selfie", spec.Name}
	cfg.Tools = []string{"monkey", "ape"}
	cfg.ScenarioApps = map[string]ScenarioApp{spec.Name: {Spec: spec, Hash: "inline-hash"}}
	cfg.Workers = 4
	settings := []Setting{BaselineParallel, TaOPTDuration}

	pooled := NewCampaign(cfg)
	if err := pooled.Prefetch(nil, settings...); err != nil {
		t.Fatal(err)
	}
	for _, name := range cfg.Apps {
		a, _, err := pooled.loadApp(name)
		if err != nil {
			t.Fatal(err)
		}
		if b, _, _ := pooled.loadApp(name); a != b {
			t.Fatalf("%s: loadApp returned two apps in one campaign", name)
		}
	}
	if len(pooled.built) != len(cfg.Apps) {
		t.Fatalf("campaign built %d apps for %d names", len(pooled.built), len(cfg.Apps))
	}

	for _, name := range cfg.Apps {
		for _, tool := range cfg.Tools {
			for _, setting := range settings {
				solo := cfg
				solo.Workers = 1
				want := mustCellT(t, NewCampaign(solo), name, tool, setting)
				got := mustCellT(t, pooled, name, tool, setting)
				if got.Hash != want.Hash || got.Union != want.Union || got.UniqueCrashes != want.UniqueCrashes ||
					got.DistinctUIs != want.DistinctUIs || got.Events != want.Events ||
					got.OfflineSubspaces != want.OfflineSubspaces ||
					!reflect.DeepEqual(got.Timeline, want.Timeline) || !reflect.DeepEqual(got.OverlapHist, want.OverlapHist) {
					t.Fatalf("pooled cell %s differs from a fresh-app cell:\n%+v\nvs\n%+v", got.Key, got, want)
				}
			}
		}
	}
}
