package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"

	"taopt/internal/apps"
	"taopt/internal/harness"
	"taopt/internal/metrics"
	"taopt/internal/scenario"
	"taopt/internal/sim"
)

// gridPairs is the grid slice: one tool per app, so the three apps span the
// catalog from its smallest (Filters For Selfie) to its largest (Zedge),
// include a login-gated one (Quizlet), and every tool runs. Each pair runs
// under every gridSettings entry: 9 cells of l_p = 60 min at d_max = 5.
var gridPairs = []struct{ App, Tool string }{
	{"Filters For Selfie", "monkey"},
	{"Quizlet", "ape"},
	{"Zedge", "wctester"},
}

var gridSettings = []string{"baseline", "taopt-duration", "taopt-resource"}

// minutes is l_p of every run the workloads start.
func (r *run) minutes() float64 {
	if r.cfg.Tiny {
		return 3
	}
	return 60
}

// gridSlice is the set-up grid: one campaign configuration per pair.
type gridSlice struct {
	cfgs     []harness.CampaignConfig
	settings []harness.Setting
}

// gridSetup compiles the slice's campaign documents, generates their apps,
// and recomputes one TaOPT cell serially; it returns that cell's digest for
// the pooled-versus-serial check.
func gridSetup(r *run) (*gridSlice, string, error) {
	g := &gridSlice{}
	for i, p := range gridPairs {
		doc, err := json.Marshal(map[string]any{
			"schemaVersion": 1, "kind": "campaign", "name": fmt.Sprintf("perfbench grid %d", i),
			"campaign": map[string]any{
				"apps": []string{p.App}, "tools": []string{p.Tool}, "settings": gridSettings,
				"instances": 5, "durationMin": r.minutes(), "workers": r.workers, "seed": r.seedFor(i),
			},
		})
		if err != nil {
			return nil, "", err
		}
		sc, err := scenario.CompileCampaign(doc)
		if err != nil {
			return nil, "", err
		}
		cfg, err := harness.FromScenario(sc)
		if err != nil {
			return nil, "", err
		}
		if g.settings, err = harness.ScenarioSettings(sc); err != nil {
			return nil, "", err
		}
		if _, err := apps.Load(p.App); err != nil {
			return nil, "", err
		}
		g.cfgs = append(g.cfgs, cfg)
	}
	serial := g.cfgs[0]
	serial.Workers = 1
	s, err := harness.NewCampaign(serial).Cell(gridPairs[0].App, gridPairs[0].Tool, harness.TaOPTDuration)
	r.op(err)
	if err != nil {
		return nil, "", err
	}
	return g, digestCells([]*harness.CellSummary{s}), nil
}

// gridPass computes every cell of the slice on fresh campaigns through
// Campaign.Prefetch at the configured pool width, and returns the cells in
// slice order.
func gridPass(r *run, g *gridSlice, tr *Tracer, parent int) ([]*harness.CellSummary, error) {
	var cells []*harness.CellSummary
	for i, cfg := range g.cfgs {
		c := harness.NewCampaign(cfg)
		sp := tr.Begin("harness.prefetch", parent, i)
		err := c.Prefetch(nil, g.settings...)
		tr.End(sp, int64(len(g.settings)))
		for _, s := range g.settings {
			cell, cerr := c.Cell(gridPairs[i].App, gridPairs[i].Tool, s)
			r.op(cerr)
			if err == nil {
				err = cerr
			}
			cells = append(cells, cell)
		}
		if err != nil {
			return nil, err
		}
	}
	return cells, nil
}

// gridSpecs are the slice's cells as probe inputs.
func gridSpecs(r *run) []probeSpec {
	var out []probeSpec
	for i, p := range gridPairs {
		for _, s := range gridSettings {
			out = append(out, probeSpec{App: p.App, Tool: p.Tool, Setting: s, Seed: r.seedFor(i)})
		}
	}
	return out
}

func runGrid(r *run) error {
	var g *gridSlice
	var serialDigest string
	setup, err := r.setUp(func() (err error) {
		g, serialDigest, err = gridSetup(r)
		return err
	})
	if err != nil {
		return err
	}
	r.logf("grid: set up %d campaigns in %.2fs", len(g.cfgs), setup[len(setup)-1])

	var digests []string
	var first []*harness.CellSummary
	err = r.runPasses("grid.pass", os.Getpid(), 1, setup, func(tr *Tracer, parent int) (float64, float64, float64, error) {
		m, err := startMeter()
		if err != nil {
			return 0, 0, 0, err
		}
		cells, err := gridPass(r, g, tr, parent)
		if err != nil {
			return 0, 0, 0, err
		}
		wall, stolen, cpu, err := m.stop()
		digests = append(digests, digestCells(cells))
		if first == nil {
			first = cells
		}
		return wall, stolen, cpu, err
	})
	if err != nil {
		return err
	}
	if r.cfg.Trace {
		specs := gridSpecs(r)
		if err := probeCommon(r, specs); err != nil {
			return err
		}
		if err := probeCodec(r, specs); err != nil {
			return err
		}
		if err := probeServiceInProcess(r, specs); err != nil {
			return err
		}
	}

	same := true
	for _, d := range digests {
		same = same && d == digests[0]
	}
	r.check("grid.passes_identical", same, "%d passes, digest %.16s", len(digests), digests[0])
	pooled := digestCells(first[1:2]) // the first pair's taopt-duration cell
	r.check("grid.serial_matches_pooled", pooled == serialDigest, "serial %.16s pooled %.16s", serialDigest, pooled)

	gain, saved := gridOutcomes(first, g.cfgs[0])
	r.extra("coverage_gain_pct", "%", "higher", []float64{gain}, "simulated; exact per seed")
	r.extra("resource_saved_pct", "%", "higher", []float64{saved}, "simulated; exact per seed")
	return nil
}

// gridOutcomes are the paper's headline results over the slice, in
// percent: the mean TaOPT(D) union-coverage change over baseline (Table 4)
// and the mean TaOPT(R) machine time saved (Figure 6). cells are in slice
// order: per pair, baseline, taopt-duration, taopt-resource.
func gridOutcomes(cells []*harness.CellSummary, cfg harness.CampaignConfig) (gain, saved float64) {
	budget := sim.Duration(cfg.Instances) * cfg.Duration
	n := float64(len(cells) / 3)
	for i := 0; i+2 < len(cells); i += 3 {
		base, dur, res := cells[i], cells[i+1], cells[i+2]
		gain += 100 * float64(dur.Union-base.Union) / float64(base.Union) / n
		saved += 100 * metrics.ResourceSaved(res.Timeline, base.Union, budget) / n
	}
	return gain, saved
}

// digestCells hashes every field of the summaries the experiment renderers
// read, so two computations of the same cells agree exactly or not at all.
func digestCells(cells []*harness.CellSummary) string {
	h := sha256.New()
	for _, s := range cells {
		digestCell(h, s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestCell(h hash.Hash, s *harness.CellSummary) {
	fmt.Fprintf(h, "%s|%s|%d|%d|%d|%v|%d|%d|%d|%d|%d|%d|%d|%d|%v\n",
		s.Key, s.Hash, s.Union, s.UniqueCrashes, s.DistinctUIs, s.UIOccAverage,
		s.WallUsed, s.MachineUsed, s.Events, s.Subspaces, s.FailedInstances,
		s.FaultsInjected, s.OrphansPending, s.OfflineSubspaces, s.OverlapHist)
	fmt.Fprintln(h, s.UnionSet.Elements())
	for _, set := range s.InstanceSets {
		fmt.Fprintln(h, set.Elements())
	}
	for _, p := range s.Timeline {
		fmt.Fprintf(h, "%d %d %d %d %v\n", p.Wall, p.Machine, p.Covered, p.Crashes, p.AJS)
	}
}
