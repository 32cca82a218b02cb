package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime/pprof"
	"sort"
	"time"

	"taopt/internal/apps"
	"taopt/internal/bus"
	"taopt/internal/core"
	"taopt/internal/coverage"
	"taopt/internal/device"
	"taopt/internal/harness"
	"taopt/internal/harness/fleet"
	"taopt/internal/metrics"
	"taopt/internal/scenario"
	"taopt/internal/sim"
	"taopt/internal/toller"
	"taopt/internal/tools"
	"taopt/internal/trace"
)

// The traced run fills the per-layer table by calling each layer's public
// functions from outside, on the workload's own inputs: the probes below.
// Every workload runs every probe, so every per-layer metric is measured on
// every workload; the layer table says on which workload a change to the
// layer should show end to end.

// probeSpec is one run of a workload's inputs.
type probeSpec struct {
	App, Tool, Setting string
	Seed               int64
}

// runConfig lowers a spec onto the harness, as a campaign cell would.
func (r *run) runConfig(p probeSpec) (harness.RunConfig, error) {
	a, err := apps.Load(p.App)
	if err != nil {
		return harness.RunConfig{}, err
	}
	s, err := harness.ParseSetting(p.Setting)
	if err != nil {
		return harness.RunConfig{}, err
	}
	return harness.RunConfig{
		App: a, Tool: p.Tool, Setting: s, Seed: p.Seed,
		Duration:     sim.Duration(r.minutes() * 60e9),
		ScenarioHash: apps.Hash(p.App),
	}, nil
}

// runDoc is the spec as a taoptd run document under the given name.
func (r *run) runDoc(p probeSpec, name string) []byte {
	doc, err := json.Marshal(map[string]any{
		"schemaVersion": 1, "kind": "run", "name": name,
		"run": map[string]any{
			"app": p.App, "tool": p.Tool, "setting": p.Setting,
			"durationMin": r.minutes(), "seed": p.Seed,
		},
	})
	if err != nil {
		panic(err) // a map of strings and numbers always marshals
	}
	return doc
}

// stepsPerPair is how many tool steps the instance-loop probe drives:
// enough for the screen book to fill, as it does in a run, so a step costs
// what it costs inside one.
func (r *run) stepsPerPair() int {
	if r.cfg.Tiny {
		return 60
	}
	return 2000
}

// probeSteps drives one instance per distinct (app, tool) of specs through
// tools.Tool.Choose and toller.Driver.View/Perform, timing each call, and
// times the sub-calls standalone on the same emulator states: Render,
// Actions and Abstract on the current screen, Book.Observe of it, and
// device Perform on a twin emulator kept in lockstep. It returns the mean
// step time per (app, tool).
func probeSteps(r *run, specs []probeSpec) (map[string]float64, error) {
	stepNS := make(map[string]float64)
	spans := map[string][]float64{}
	diverged := 0
	for i, p := range specs {
		key := p.App + "/" + p.Tool
		if _, done := stepNS[key]; done {
			continue
		}
		a, err := apps.Load(p.App)
		if err != nil {
			return nil, err
		}
		tool, err := tools.New(p.Tool, p.Seed)
		if err != nil {
			return nil, err
		}
		emu := device.NewEmulator(0, a, sim.NewRNG(p.Seed))
		twin := device.NewEmulator(0, a, sim.NewRNG(p.Seed))
		emu.AutoLogin()
		twin.AutoLogin()
		book := trace.NewBook()
		drv := toller.NewDriver(emu, book, 0)
		var now sim.Duration
		var total time.Duration
		steps := r.stepsPerPair()
		parent := r.tr.Begin("step.loop", 0, i)
		for s := 0; s < steps; s++ {
			t0 := time.Now()
			v := drv.View()
			t1 := time.Now()
			act := tool.Choose(v)
			t2 := time.Now()

			scr := emu.Render()
			t3 := time.Now()
			emu.Actions(scr)
			t4 := time.Now()
			a.Render(emu.Current(), 1)
			t5 := time.Now()
			scr.Abstract()
			t6 := time.Now()
			book.Observe(scr)
			t7 := time.Now()
			twin.Perform(act, now)
			t8 := time.Now()
			res := drv.Perform(act, now)
			t9 := time.Now()
			now += res.Latency
			if twin.Current() != emu.Current() {
				diverged++
			}
			total += t2.Sub(t0) + t9.Sub(t8)
			for _, c := range []struct {
				name       string
				start, end time.Time
			}{
				{"toller.view", t0, t1}, {"tools.choose", t1, t2}, {"device.render", t2, t3},
				{"device.actions", t3, t4}, {"app.render", t4, t5}, {"ui.abstract", t5, t6},
				{"trace.observe", t6, t7}, {"device.perform", t7, t8}, {"toller.perform", t8, t9},
			} {
				r.tr.Add(c.name, parent, i, c.start, c.end, 1)
				spans[c.name] = append(spans[c.name], float64(c.end.Sub(c.start).Nanoseconds()))
			}
		}
		r.tr.End(parent, int64(steps))
		r.op(nil)
		stepNS[key] = float64(total.Nanoseconds()) / float64(steps)
	}
	r.check("steps.twin_in_lockstep", diverged == 0, "%d divergent steps", diverged)
	for _, name := range []string{"tools.choose", "toller.view", "toller.perform", "device.render",
		"device.actions", "device.perform", "app.render", "ui.abstract", "trace.observe"} {
		r.layer(name+"_ns", spans[name]...)
	}
	return stepNS, nil
}

// mergedEvents is a run's trace events across instances in time order, the
// order the coordinator consumed them in.
func mergedEvents(res *harness.RunResult) []trace.Event {
	var out []trace.Event
	for _, l := range res.Traces() {
		out = append(out, l.Events()...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// innerReps repeats a sub-microsecond call enough times to time it.
const innerReps = 200

// probeCells runs every spec through harness.Run serially, then again on
// the fleet pool under a CPU profile. Per serial cell it also times, over
// the run's own outputs, the coordinator's Analyzer.Observe on the recorded
// event stream (TaOPT cells), bus.Inline.Publish with the harness's one
// subscriber, and coverage.UnionOf and metrics.AJS on the instance sets.
func probeCells(r *run, specs []probeSpec, stepNS map[string]float64) error {
	var cellMS, nsPerEvent, events, commands, failures, samples []float64
	var unionNS, ajsNS, publishNS, observeNS, candidates, subspaces, accept []float64
	var serial time.Duration
	var stepShare []float64
	cfgs := make([]harness.RunConfig, len(specs))
	serialEvents := make([]uint64, len(specs))
	for i, p := range specs {
		cfg, err := r.runConfig(p)
		if err != nil {
			return err
		}
		cfgs[i] = cfg
		sp := r.tr.Begin("harness.run", 0, i)
		t0 := time.Now()
		res, err := harness.Run(cfg)
		d := time.Since(t0)
		r.tr.End(sp, 1)
		r.op(err)
		if err != nil {
			return err
		}
		serial += d
		serialEvents[i] = res.Events
		cellMS = append(cellMS, float64(d.Nanoseconds())/1e6)
		events = append(events, float64(res.Events))
		nsPerEvent = append(nsPerEvent, float64(d.Nanoseconds())/float64(res.Events))
		commands = append(commands, float64(res.Transport.Commands))
		failures = append(failures, float64(res.Transport.CommandFailures))
		samples = append(samples, float64(len(res.Timeline)))

		evs := mergedEvents(res)
		// A tool step emits one event; steering and launches emit the rest.
		steps := 0
		for _, ev := range evs {
			if !ev.Enforced && ev.Action.Kind != trace.ActionLaunch {
				steps++
			}
		}
		stepShare = append(stepShare, stepNS[p.App+"/"+p.Tool]*float64(steps)/float64(d.Nanoseconds()))

		sets := res.InstanceSets()
		unionNS = append(unionNS, timePerOp(r, "coverage.union", i, innerReps, innerReps, func() { coverage.UnionOf(sets) }))
		ajsNS = append(ajsNS, timePerOp(r, "metrics.ajs", i, innerReps, innerReps, func() { metrics.AJS(sets) }))

		port := bus.NewInline()
		port.Subscribe(func(trace.Event) {})
		publishNS = append(publishNS, timePerOp(r, "bus.publish", i, 1, len(evs), func() {
			for _, ev := range evs {
				port.Publish(ev)
			}
		})/float64(len(evs)))

		if st := res.CoordinatorStats; st != nil {
			lmin := core.LMinShort
			if cfg.Setting == harness.TaOPTResource {
				lmin = core.LMinLong
			}
			an := core.NewAnalyzer(core.DefaultAnalyzerConfig(lmin), res.Book)
			found := 0
			observeNS = append(observeNS, timePerOp(r, "core.observe", i, 1, len(evs), func() {
				for _, ev := range evs {
					if _, ok := an.Observe(ev); ok {
						found++
					}
				}
			})/float64(len(evs)))
			candidates = append(candidates, float64(found))
			subspaces = append(subspaces, float64(len(res.Subspaces)))
			if st.Candidates > 0 {
				accept = append(accept, float64(st.Accepted)/float64(st.Candidates))
			}
		}
	}
	if len(observeNS) == 0 {
		return fmt.Errorf("the inputs hold no TaOPT run for the coordinator probe")
	}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	sp := r.tr.Begin("fleet.map", 0, 0)
	t0 := time.Now()
	results := fleet.Map(r.workers, len(cfgs), func(i int) (uint64, error) {
		res, err := harness.Run(cfgs[i])
		if err != nil {
			return 0, err
		}
		return res.Events, nil
	})
	pooled := time.Since(t0)
	r.tr.End(sp, int64(len(cfgs)))
	pprof.StopCPUProfile()
	mismatch := 0
	for i, res := range results {
		r.op(res.Err)
		if res.Err == nil && res.Value != serialEvents[i] {
			mismatch++
		}
	}
	r.check("cells.pooled_matches_serial", mismatch == 0, "%d of %d cells differ in event count", mismatch, len(cfgs))

	r.layer("harness.cell_ms_p50", Percentile(cellMS, 0.5))
	r.layer("harness.cell_ms_p90", Percentile(cellMS, 0.9))
	r.layer("harness.ns_per_event", nsPerEvent...)
	r.layer("sim.events", events...)
	r.layer("fleet.busy_share", serial.Seconds()/(float64(r.workers)*pooled.Seconds()))
	r.layer("core.observe_ns", observeNS...)
	r.layer("core.candidates", candidates...)
	r.layer("core.subspaces", subspaces...)
	if len(accept) == 0 {
		accept = []float64{0}
	}
	r.layer("core.accept_ratio", accept...)
	r.layer("bus.publish_ns", publishNS...)
	r.layer("bus.commands", commands...)
	r.layer("bus.command_failures", failures...)
	r.layer("coverage.union_ns", unionNS...)
	r.layer("metrics.ajs_ns", ajsNS...)
	r.layer("metrics.samples", samples...)
	return crossCheck(r, prof.Bytes(), Percentile(stepShare, 0.5))
}

// timePerOp runs fn reps times under one span covering ops operations and
// returns ns per call of fn.
func timePerOp(r *run, name string, req, reps, ops int, fn func()) float64 {
	sp := r.tr.Begin(name, 0, req)
	t0 := time.Now()
	for k := 0; k < reps; k++ {
		fn()
	}
	d := time.Since(t0)
	r.tr.End(sp, int64(ops))
	return float64(d.Nanoseconds()) / float64(reps)
}

// probeDocs times the front of a taoptd submit on the specs' run
// documents: scenario.CompileRun, the cache-key hash, the lowering onto the
// harness (which generates the app), and apps.Load alone.
func probeDocs(r *run, specs []probeSpec) {
	const reps = 3
	var compile, hash, lower, load []float64
	for i, p := range specs {
		doc := r.runDoc(p, fmt.Sprintf("perfbench doc %d", i))
		for k := 0; k < reps; k++ {
			t0 := time.Now()
			rs, err := scenario.CompileRun(doc)
			t1 := time.Now()
			r.op(err)
			if err != nil {
				continue
			}
			_, err = scenario.CanonicalHashExcluding(doc, "name")
			t2 := time.Now()
			r.op(err)
			_, err = harness.FromRunScenario(rs)
			t3 := time.Now()
			r.op(err)
			_, err = apps.Load(p.App)
			t4 := time.Now()
			r.op(err)
			r.tr.Add("scenario.compile", 0, i, t0, t1, 1)
			r.tr.Add("scenario.hash", 0, i, t1, t2, 1)
			r.tr.Add("harness.from_run_scenario", 0, i, t2, t3, 1)
			r.tr.Add("apps.load", 0, i, t3, t4, 1)
			compile = append(compile, float64(t1.Sub(t0).Nanoseconds())/1e3)
			hash = append(hash, float64(t2.Sub(t1).Nanoseconds())/1e3)
			lower = append(lower, float64(t3.Sub(t2).Nanoseconds())/1e6)
			load = append(load, float64(t4.Sub(t3).Nanoseconds())/1e6)
		}
	}
	r.layer("scenario.compile_us", compile...)
	r.layer("scenario.hash_us", hash...)
	r.layer("harness.from_run_scenario_ms", lower...)
	r.layer("apps.load_ms", load...)
}

// probeCommon runs the probes every workload shares: the step path, the
// cells with their coordinator, transport and sampling sub-probes and the
// profile cross-check, and the run documents.
func probeCommon(r *run, specs []probeSpec) error {
	stepNS, err := probeSteps(r, specs)
	if err != nil {
		return err
	}
	if err := probeCells(r, specs, stepNS); err != nil {
		return err
	}
	probeDocs(r, specs)
	return nil
}

// firstTaOPT picks the spec the recording probe uses: the first
// taopt-duration spec, else the first spec.
func firstTaOPT(specs []probeSpec) probeSpec {
	for _, p := range specs {
		if p.Setting == "taopt-duration" {
			return p
		}
	}
	return specs[0]
}
