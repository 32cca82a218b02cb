package main

import "fmt"

// metricDef is one metric of BENCHMARK.json. Bound is an end-to-end
// metric's regression bound, as a share of the parent's median. Moves is a
// per-layer metric's target: which end-to-end metric a change to the layer
// should move, on which workload ("metric → workload; ...").
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

// endToEnd are the metrics every untraced run reports, on every workload.
// What one pass and the working process are differs per workload; see
// README.md.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// Per-layer targets. The record-replay and service set-ups simulate runs
// (the corpus recordings, the warm-up misses), so whatever speeds a run
// shows in their setup_s.
const (
	simMoves   = "wall_s, cpu_s → grid; setup_s → record-replay, service; nothing → record-replay and service wall_s"
	codecMoves = "wall_s, cpu_s → record-replay; setup_s → record-replay, service; nothing → grid"
	docMoves   = "wall_s, cpu_s → service (every hit compiles, hashes and generates its document's app); setup_s → grid"
	svcMoves   = "wall_s, cpu_s, peak_rss_mb → service; nothing → grid, record-replay"
	noMoves    = "nothing (cross-check of the timed shares)"
)

// layers are the metrics every traced run reports, on every workload. Each
// is timed or counted from outside the layer's public functions.
var layers = []metricDef{
	// Step path: one instance driven through tools.Tool.Choose and
	// toller.Driver.View/Perform, with the sub-calls timed standalone on
	// the same emulator states.
	{Name: "tools.choose_ns", Unit: "ns", Better: "lower", Moves: simMoves},
	{Name: "toller.view_ns", Unit: "ns", Better: "lower", Moves: simMoves},
	{Name: "toller.perform_ns", Unit: "ns", Better: "lower", Moves: simMoves},
	{Name: "device.render_ns", Unit: "ns", Better: "lower", Moves: simMoves},
	{Name: "device.actions_ns", Unit: "ns", Better: "lower", Moves: simMoves},
	{Name: "device.perform_ns", Unit: "ns", Better: "lower", Moves: simMoves},
	{Name: "app.render_ns", Unit: "ns", Better: "lower", Moves: simMoves},
	{Name: "ui.abstract_ns", Unit: "ns", Better: "lower", Moves: simMoves},
	{Name: "trace.observe_ns", Unit: "ns", Better: "lower", Moves: simMoves},

	// Run loop and pool: harness.Run per input cell, serially and on the
	// fleet pool.
	{Name: "harness.cell_ms_p50", Unit: "ms", Better: "lower", Moves: simMoves},
	{Name: "harness.cell_ms_p90", Unit: "ms", Better: "lower", Moves: simMoves},
	{Name: "harness.ns_per_event", Unit: "ns", Better: "lower", Moves: simMoves},
	{Name: "sim.events", Unit: "count", Better: "lower", Moves: "wall_s, cpu_s → grid (a change here changes the simulation itself)"},
	{Name: "fleet.busy_share", Unit: "ratio", Better: "higher", Moves: "wall_s, not cpu_s → grid"},

	// Coordinator, over the recorded event streams of the TaOPT cells.
	{Name: "core.observe_ns", Unit: "ns", Better: "lower", Moves: "wall_s, cpu_s → grid (TaOPT cells), record-replay (replay re-drives the coordinator)"},
	{Name: "core.candidates", Unit: "count", Better: "lower", Moves: "wall_s, cpu_s → grid (TaOPT cells)"},
	{Name: "core.subspaces", Unit: "count", Better: "higher", Moves: "nothing (an algorithm outcome; a speed-only change must leave it)"},
	{Name: "core.accept_ratio", Unit: "ratio", Better: "higher", Moves: "nothing (an algorithm outcome; a speed-only change must leave it)"},

	// Transport.
	{Name: "bus.publish_ns", Unit: "ns", Better: "lower", Moves: "wall_s, cpu_s → grid"},
	{Name: "bus.commands", Unit: "count", Better: "lower", Moves: "wall_s, cpu_s → grid"},
	{Name: "bus.command_failures", Unit: "count", Better: "lower", Moves: "wall_s, cpu_s → grid"},

	// Sampling.
	{Name: "coverage.union_ns", Unit: "ns", Better: "lower", Moves: "wall_s, cpu_s → grid"},
	{Name: "metrics.ajs_ns", Unit: "ns", Better: "lower", Moves: "wall_s, cpu_s → grid"},
	{Name: "metrics.samples", Unit: "count", Better: "lower", Moves: "wall_s, cpu_s → grid"},

	// Record formats, per trace event of a recorded run.
	{Name: "export.json_encode_ns_per_event", Unit: "ns", Better: "lower", Moves: codecMoves},
	{Name: "export.json_decode_ns_per_event", Unit: "ns", Better: "lower", Moves: codecMoves},
	{Name: "export.bin_encode_ns_per_event", Unit: "ns", Better: "lower", Moves: codecMoves},
	{Name: "export.bin_decode_ns_per_event", Unit: "ns", Better: "lower", Moves: codecMoves},
	{Name: "export.replay_ns_per_event", Unit: "ns", Better: "lower", Moves: codecMoves},
	{Name: "wire.decode_ns_per_event", Unit: "ns", Better: "lower", Moves: codecMoves},
	{Name: "core.replay_self_ns_per_event", Unit: "ns", Better: "lower", Moves: codecMoves},
	{Name: "corpus.scan_ns_per_event", Unit: "ns", Better: "lower", Moves: codecMoves},
	{Name: "export.record_bytes_per_event", Unit: "B", Better: "lower", Moves: "wall_s, peak_rss_mb → record-replay; nothing → grid"},
	{Name: "harness.record_overhead_pct", Unit: "%", Better: "lower", Moves: "setup_s → record-replay; nothing → grid"},

	// Documents: compile, hash, lower (which generates the app) and load
	// the app of each input run document, the front of every taoptd submit.
	{Name: "scenario.compile_us", Unit: "us", Better: "lower", Moves: docMoves},
	{Name: "scenario.hash_us", Unit: "us", Better: "lower", Moves: docMoves},
	{Name: "harness.from_run_scenario_ms", Unit: "ms", Better: "lower", Moves: docMoves},
	{Name: "apps.load_ms", Unit: "ms", Better: "lower", Moves: docMoves},

	// taoptd, timed per HTTP call from the client side.
	{Name: "service.submit_hit_ms_p50", Unit: "ms", Better: "lower", Moves: svcMoves},
	{Name: "service.submit_hit_ms_p90", Unit: "ms", Better: "lower", Moves: svcMoves},
	{Name: "service.export_get_ms_p50", Unit: "ms", Better: "lower", Moves: svcMoves},
	{Name: "service.repo_get_cell_ms", Unit: "ms", Better: "lower", Moves: svcMoves},
	{Name: "service.repo_put_cell_ms", Unit: "ms", Better: "lower", Moves: "setup_s → service; nothing → grid, record-replay"},
	{Name: "service.hit_ratio", Unit: "ratio", Better: "higher", Moves: svcMoves},

	// Tracing cost: the traced pass against an untraced one in the same run.
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Moves: "nothing (the cost of measuring)"},
}

// profilePackages are the packages the CPU-profile cross-check folds
// samples into, plus "runtime" for samples with no taopt frame.
var profilePackages = []string{
	"app", "ui", "device", "toller", "trace", "tools", "core", "bus", "sim",
	"coverage", "metrics", "harness", "runtime",
}

func init() {
	for _, p := range profilePackages {
		layers = append(layers, metricDef{
			Name: "profile." + p + "_share", Unit: "ratio", Better: "lower", Moves: noMoves,
		})
	}
	layers = append(layers, metricDef{Name: "profile.flagged", Unit: "count", Better: "lower", Moves: noMoves})
}

func endToEndMetric(name string) metricDef { return find(endToEnd, name) }

func layerMetric(name string) metricDef { return find(layers, name) }

func find(defs []metricDef, name string) metricDef {
	for _, d := range defs {
		if d.Name == name {
			return d
		}
	}
	panic(fmt.Sprintf("perfbench: metric %q is not in the table", name))
}
