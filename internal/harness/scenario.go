package harness

import (
	"fmt"
	"sync"

	"taopt/internal/app"
	"taopt/internal/apps"
	"taopt/internal/scenario"
	"taopt/internal/tools"
)

// ScenarioApp is an app defined inline by a campaign scenario document: the
// fully resolved spec plus the canonical hash of the defining document.
type ScenarioApp struct {
	Spec app.Spec
	Hash string
}

// loadApp resolves one campaign app name: an inline scenario app if the
// campaign carries one under that name, the catalog otherwise. It returns
// the generated app and the scenario hash stamped into the cell's export.
// Each name is generated once per campaign: *app.App is read-only once
// built, so the campaign's pooled cells share it.
func (c *Campaign) loadApp(name string) (*app.App, string, error) {
	c.builtMu.Lock()
	b, ok := c.built[name]
	if !ok {
		b = &builtApp{}
		c.built[name] = b
	}
	c.builtMu.Unlock()
	b.once.Do(func() { b.app, b.hash, b.err = c.buildApp(name) })
	return b.app, b.hash, b.err
}

// builtApp is one memoised loadApp result; once guards its generation.
type builtApp struct {
	once sync.Once
	app  *app.App
	hash string
	err  error
}

func (c *Campaign) buildApp(name string) (*app.App, string, error) {
	if sa, ok := c.cfg.ScenarioApps[name]; ok {
		return app.Generate(sa.Spec), sa.Hash, nil
	}
	aut, err := apps.Load(name)
	if err != nil {
		return nil, "", err
	}
	return aut, apps.Hash(name), nil
}

// FromScenario lowers a compiled campaign scenario onto a CampaignConfig.
// Absent scenario fields stay zero so the usual campaign defaults (or the
// caller's flag overrides) apply; inline apps join the app axis under their
// own names. The scenario's fault grid is not lowered here — it drives
// report.ChaosGrid — but a single fault plan is.
func FromScenario(sc *scenario.Campaign) (CampaignConfig, error) {
	cfg := CampaignConfig{
		Apps:        append([]string(nil), sc.Apps...),
		Tools:       append([]string(nil), sc.Tools...),
		Instances:   sc.Instances,
		Duration:    sc.Duration,
		SampleEvery: sc.SampleEvery,
		Workers:     sc.Workers,
		Seed:        sc.Seed,
	}
	if len(sc.InlineApps) > 0 {
		cfg.ScenarioApps = make(map[string]ScenarioApp, len(sc.InlineApps))
		for _, a := range sc.InlineApps {
			name := a.Spec.Name
			if _, dup := cfg.ScenarioApps[name]; dup {
				return CampaignConfig{}, fmt.Errorf("harness: scenario %q defines app %q twice", sc.Name, name)
			}
			cfg.ScenarioApps[name] = ScenarioApp{Spec: a.Spec, Hash: a.Hash}
			cfg.Apps = append(cfg.Apps, name)
		}
	}
	if sc.Faults != nil {
		f := *sc.Faults
		cfg.Faults = &f
	}
	return cfg, nil
}

// CheckRunScenario applies FromRunScenario's accept/reject rules without
// building anything: the catalog app must exist (an inline spec was already
// validated by the scenario compiler), then the tool, then the setting. It is
// the service's submit-time check, cheap enough to run before a cache lookup.
func CheckRunScenario(rs *scenario.RunSpec) error {
	if rs.App == nil {
		if _, err := apps.Lookup(rs.AppName); err != nil {
			return err
		}
	}
	if _, err := tools.New(rs.Tool, 0); err != nil {
		return err
	}
	_, err := ParseSetting(rs.Setting)
	return err
}

// FromRunScenario lowers a compiled run scenario onto a RunConfig: the
// campaign service's compute path. The app resolves like a campaign cell —
// generated from the inline spec, or loaded from the catalog — and the
// export's scenario_hash names the app document either way, so a service run
// is indistinguishable from the equivalent `taopt -scenario` invocation.
// Absent scenario fields stay zero for the usual Run defaults; the document
// is checked by CheckRunScenario first, so its rules live in one place.
func FromRunScenario(rs *scenario.RunSpec) (RunConfig, error) {
	if err := CheckRunScenario(rs); err != nil {
		return RunConfig{}, err
	}
	setting, _ := ParseSetting(rs.Setting)
	cfg := RunConfig{
		Tool:          rs.Tool,
		Setting:       setting,
		Instances:     rs.Instances,
		Duration:      rs.Duration,
		MachineBudget: rs.MachineBudget,
		SampleEvery:   rs.SampleEvery,
		Seed:          rs.Seed,
		Telemetry:     rs.Telemetry,
	}
	if rs.App != nil {
		cfg.App = app.Generate(rs.App.Spec)
		cfg.ScenarioHash = rs.App.Hash
	} else {
		cfg.App = apps.MustLoad(rs.AppName)
		cfg.ScenarioHash = apps.Hash(rs.AppName)
	}
	if rs.Faults != nil {
		f := *rs.Faults
		cfg.Faults = &f
	}
	return cfg, nil
}

// ScenarioSettings parses a campaign scenario's setting names into harness
// settings (the two vocabularies are pinned against each other by test).
func ScenarioSettings(sc *scenario.Campaign) ([]Setting, error) {
	out := make([]Setting, 0, len(sc.Settings))
	for _, name := range sc.Settings {
		s, err := ParseSetting(name)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
