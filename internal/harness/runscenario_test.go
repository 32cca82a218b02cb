package harness

import (
	"bytes"
	"strings"
	"testing"

	"taopt/internal/apps"
	"taopt/internal/scenario"
	"taopt/internal/sim"
)

func mustCompileRunT(t *testing.T, src string) *scenario.RunSpec {
	t.Helper()
	rs, err := scenario.CompileRun([]byte(src))
	if err != nil {
		t.Fatalf("CompileRun: %v", err)
	}
	return rs
}

func TestFromRunScenarioCatalog(t *testing.T) {
	rs := mustCompileRunT(t, `{"kind": "run", "name": "cell", "run": {
		"app": "Filters For Selfie", "tool": "monkey", "setting": "taopt-duration",
		"instances": 4, "durationMin": 8, "budgetMin": 32, "sampleEverySec": 5,
		"seed": 15, "telemetry": true, "faults": {"failureRate": 0.2}}}`)
	cfg, err := FromRunScenario(rs)
	if err != nil {
		t.Fatalf("FromRunScenario: %v", err)
	}
	if cfg.App == nil || cfg.App.Name != "Filters For Selfie" {
		t.Fatalf("app not resolved: %+v", cfg.App)
	}
	if cfg.ScenarioHash != apps.Hash("Filters For Selfie") {
		t.Fatalf("ScenarioHash = %s, want the catalog document hash", cfg.ScenarioHash)
	}
	if cfg.Tool != "monkey" || cfg.Setting != TaOPTDuration {
		t.Fatalf("tool/setting wrong: %+v", cfg)
	}
	if cfg.Instances != 4 || cfg.Duration != sim.Duration(480e9) || cfg.MachineBudget != sim.Duration(32*60e9) ||
		cfg.SampleEvery != sim.Duration(5e9) || cfg.Seed != 15 || !cfg.Telemetry {
		t.Fatalf("knobs wrong: %+v", cfg)
	}
	if cfg.Faults == nil || cfg.Faults.FailureRate != 0.2 {
		t.Fatalf("faults = %+v", cfg.Faults)
	}
}

func TestFromRunScenarioInline(t *testing.T) {
	rs := mustCompileRunT(t, `{"kind": "run", "name": "inline", "run": {
		"inlineApp": {"name": "Tiny", "app": {"subspaces": 4}},
		"tool": "monkey", "setting": "baseline"}}`)
	cfg, err := FromRunScenario(rs)
	if err != nil {
		t.Fatalf("FromRunScenario: %v", err)
	}
	if cfg.App == nil || cfg.App.Name != "Tiny" {
		t.Fatalf("inline app not generated: %+v", cfg.App)
	}
	if cfg.ScenarioHash != rs.App.Hash {
		t.Fatalf("ScenarioHash = %s, want the inline document hash %s", cfg.ScenarioHash, rs.App.Hash)
	}
	// Lowered defaults stay zero; Run applies the usual defaults.
	if cfg.Instances != 0 || cfg.Duration != 0 {
		t.Fatalf("omitted fields must stay zero: %+v", cfg)
	}
}

func TestFromRunScenarioRejectsUnknowns(t *testing.T) {
	rs := mustCompileRunT(t, `{"kind": "run", "name": "x", "run": {
		"app": "NopeApp", "tool": "monkey", "setting": "baseline"}}`)
	if _, err := FromRunScenario(rs); err == nil {
		t.Fatal("unknown catalog app accepted")
	}
	rs = mustCompileRunT(t, `{"kind": "run", "name": "x", "run": {
		"app": "Zedge", "tool": "hypermonkey", "setting": "baseline"}}`)
	if _, err := FromRunScenario(rs); err == nil {
		t.Fatal("unknown tool accepted")
	}
}

// CheckRunScenario is FromRunScenario's accept/reject decision without the
// app build: for every document both accept, or both reject with the same
// error text (the first failing rule, in the same order).
func TestCheckRunScenarioAgreesWithFromRunScenario(t *testing.T) {
	run := func(fields string) string {
		return `{"kind": "run", "name": "x", "run": {` + fields + `}}`
	}
	cases := []struct {
		name    string
		doc     string
		setting string // overrides the compiled setting: the compiler rejects unknown ones itself
		wantErr bool
	}{
		{name: "catalog app", doc: run(`"app": "Filters For Selfie", "tool": "monkey", "setting": "baseline"`)},
		{name: "inline app", doc: run(`"inlineApp": {"name": "Tiny", "app": {"subspaces": 4}},
			"tool": "ape", "setting": "taopt-resource"`)},
		{name: "unknown app", doc: run(`"app": "NopeApp", "tool": "monkey", "setting": "baseline"`), wantErr: true},
		{name: "unknown tool", doc: run(`"app": "Zedge", "tool": "hypermonkey", "setting": "baseline"`), wantErr: true},
		{name: "unknown setting", doc: run(`"app": "Zedge", "tool": "monkey", "setting": "baseline"`),
			setting: "taopt-vibes", wantErr: true},
		{name: "unknown app and tool", doc: run(`"app": "NopeApp", "tool": "hypermonkey", "setting": "baseline"`), wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rs := mustCompileRunT(t, tc.doc)
			if tc.setting != "" {
				rs.Setting = tc.setting
			}
			checkErr := CheckRunScenario(rs)
			_, lowerErr := FromRunScenario(rs)
			if (checkErr != nil) != tc.wantErr {
				t.Fatalf("CheckRunScenario = %v, want error %v", checkErr, tc.wantErr)
			}
			if (lowerErr != nil) != tc.wantErr {
				t.Fatalf("FromRunScenario = %v, want error %v", lowerErr, tc.wantErr)
			}
			if tc.wantErr && checkErr.Error() != lowerErr.Error() {
				t.Fatalf("error text diverges:\n check: %v\n lower: %v", checkErr, lowerErr)
			}
		})
	}
}

// A lowered run scenario must be indistinguishable from the equivalent
// hand-built RunConfig — the property the service's cache-equivalence oracle
// (served export == offline taopt export) stands on.
func TestFromRunScenarioMatchesDirectConfig(t *testing.T) {
	rs := mustCompileRunT(t, `{"kind": "run", "name": "eq", "run": {
		"app": "Filters For Selfie", "tool": "monkey", "setting": "taopt-duration",
		"durationMin": 6, "seed": 7}}`)
	cfg, err := FromRunScenario(rs)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct := RunConfig{
		App:          apps.MustLoad("Filters For Selfie"),
		Tool:         "monkey",
		Setting:      TaOPTDuration,
		Duration:     6 * sim.Duration(60e9),
		Seed:         7,
		ScenarioHash: apps.Hash("Filters For Selfie"),
	}
	b, err := Run(direct)
	if err != nil {
		t.Fatal(err)
	}
	if a.Union.Count() != b.Union.Count() || a.UniqueCrashes != b.UniqueCrashes || a.Events != b.Events {
		t.Fatalf("lowered run diverges from direct config: %d/%d/%d vs %d/%d/%d",
			a.Union.Count(), a.UniqueCrashes, a.Events, b.Union.Count(), b.UniqueCrashes, b.Events)
	}
}

func TestCellSummaryCarriesScenarioHash(t *testing.T) {
	cfg := tinyConfig()
	var progress bytes.Buffer
	cfg.Progress = &progress
	c := NewCampaign(cfg)
	cell := mustCellT(t, c, "Filters For Selfie", "monkey", BaselineParallel)
	want := apps.Hash("Filters For Selfie")
	if cell.Hash != want {
		t.Fatalf("cell hash = %q, want catalog hash %q", cell.Hash, want)
	}
	line := progress.String()
	if !strings.Contains(line, "hash="+want[:12]) {
		t.Fatalf("progress line missing the scenario hash prefix: %q", line)
	}
}
