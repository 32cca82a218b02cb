// Command perfbench is the repository benchmark: three workloads that drive
// taopt through the public functions of its internal packages, each checked
// for correct output, reported as end-to-end metrics (untraced runs) or as a
// per-layer table timed from outside each layer (traced runs).
//
// Run it through run.sh from the root of a source tree, which builds this
// program and cmd/taoptd first:
//
//	bash perfbench/run.sh --workload grid --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload service --seed 1 --seconds 15 --trace 1
//	bash perfbench/run.sh compare old/ new/
//
// The last line of stdout is the run's result line, one JSON object with
// the keys BENCHMARK.json's consumers read; the full result, with its environment stamp, every sample summary and the
// output checks, goes to the result file (-out) and a table to stderr.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one benchmark invocation.
type config struct {
	Root     string // source tree root; results and scratch go under .bench_build
	Taoptd   string // taoptd binary built from Root (service workload)
	GitSHA   string
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	// Tiny shrinks every input (short runs, fewer documents) so tests can
	// exercise a workload and all of its output checks in seconds.
	Tiny bool
	Out  string // result file
}

// run is the state of one workload execution.
type run struct {
	cfg     config
	res     *Result
	tr      *Tracer // nil on untraced runs
	workers int     // nproc: pool width and client connections
	tmp     string  // scratch directory, removed when the run ends
	log     io.Writer
}

var workloads = map[string]func(*run) error{
	"grid":          runGrid,
	"record-replay": runRecordReplay,
	"service":       runService,
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// errIncorrect reports a run whose result line was printed but whose output
// checks failed.
var errIncorrect = errors.New("output checks failed")

func mainErr(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.Root, "root", ".", "root of the taopt source tree")
	fs.StringVar(&cfg.Taoptd, "taoptd", "", "taoptd binary built from the tree (service workload)")
	fs.StringVar(&cfg.GitSHA, "git-sha", "unknown", "commit the tree was checked out at")
	fs.StringVar(&cfg.Workload, "workload", "", "grid, record-replay or service")
	fs.Int64Var(&cfg.Seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.IntVar(&cfg.Seconds, "seconds", 10, "measuring time of the run")
	fs.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	fs.StringVar(&cfg.Out, "out", "", "result file (default .bench_build/results/<workload>-seed<n>-trace<t>.json)")
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 && fs.Arg(0) == "compare" {
		return compareMain(fs.Args()[1:], stdout)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	cfg.Trace = trace == 1
	if cfg.Out == "" {
		cfg.Out = filepath.Join(cfg.Root, ".bench_build", "results",
			fmt.Sprintf("%s-seed%d-trace%d.json", cfg.Workload, cfg.Seed, trace))
	}
	res, err := execute(cfg, stderr)
	if err != nil {
		return err
	}
	if err := res.writeFile(cfg.Out); err != nil {
		return fmt.Errorf("writing result: %w", err)
	}
	res.printTable(stderr)
	kind := KindEndToEnd
	if cfg.Trace {
		kind = KindLayer
	}
	line, err := json.Marshal(res.resultLine(kind))
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// execute runs one workload and returns its checked result.
func execute(cfg config, log io.Writer) (*Result, error) {
	fn, ok := workloads[cfg.Workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.Workload, strings.Join(names, ", "))
	}
	if cfg.Seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	for _, dep := range []string{"go.mod", "internal"} {
		if _, err := os.Stat(filepath.Join(cfg.Root, dep)); err != nil {
			return nil, fmt.Errorf("-root %s is not a taopt source tree: %w", cfg.Root, err)
		}
	}
	base := filepath.Join(cfg.Root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	r := &run{
		cfg: cfg,
		res: &Result{
			Workload: cfg.Workload, Seed: cfg.Seed, Trace: cfg.Trace, Seconds: cfg.Seconds,
			Env: stampEnv(cfg.Root, cfg.GitSHA),
		},
		workers: runtime.GOMAXPROCS(0),
		tmp:     tmp,
		log:     log,
	}
	if cfg.Trace {
		r.tr = NewTracer()
	}
	if err := fn(r); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	if cfg.Trace {
		if err := r.checkLayerTable(); err != nil {
			return nil, err
		}
		if err := r.writeSpans(); err != nil {
			return nil, err
		}
		r.res.Spans = spanRows(r.tr.Spans())
	} else if err := r.checkEndToEnd(); err != nil {
		return nil, err
	}
	r.res.Correct = r.res.Failed == 0 && r.res.Attempted > 0
	for _, c := range r.res.Checks {
		r.res.Correct = r.res.Correct && c.OK
	}
	return r.res, nil
}

// logf prints progress to stderr.
func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.log, "perfbench: "+format+"\n", args...)
}

// check records one output check.
func (r *run) check(name string, ok bool, format string, args ...any) {
	r.res.Checks = append(r.res.Checks, Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// op counts one attempted operation, failed when err is non-nil.
func (r *run) op(err error) {
	r.res.Attempted++
	if err != nil {
		r.res.Failed++
		r.logf("operation failed: %v", err)
	}
}

// maxKeptSamples bounds the raw samples a result file keeps per metric;
// larger sets keep only their Summary.
const maxKeptSamples = 200

// add records a metric from its samples.
func (r *run) add(kind, name, unit, better string, samples []float64, note string) {
	m := Metric{Name: name, Unit: unit, Better: better, Kind: kind, Summary: Summarize(samples), Note: note}
	if len(samples) <= maxKeptSamples {
		m.Samples = samples
	}
	r.res.Metrics = append(r.res.Metrics, m)
}

// e2e records an end-to-end metric; its unit and direction come from the
// end-to-end table.
func (r *run) e2e(name string, samples []float64) {
	m := endToEndMetric(name)
	r.add(KindEndToEnd, name, m.Unit, m.Better, samples, "")
}

// extra records a workload-only figure (kept in the result file).
func (r *run) extra(name, unit, better string, samples []float64, note string) {
	r.add(KindWorkload, name, unit, better, samples, note)
}

// layer records a per-layer metric; its unit and direction come from the
// layer table.
func (r *run) layer(name string, samples ...float64) {
	m := layerMetric(name)
	r.add(KindLayer, name, m.Unit, m.Better, samples, "")
	last := &r.res.Metrics[len(r.res.Metrics)-1]
	last.Moves = m.Moves
}

// checkEndToEnd verifies an untraced run measured every end-to-end metric.
func (r *run) checkEndToEnd() error {
	for _, m := range endToEnd {
		got := r.res.metric(m.Name)
		if got == nil || got.Kind != KindEndToEnd || got.N == 0 {
			return fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		if got.Median <= 0 {
			return fmt.Errorf("end-to-end metric %s measured %v; it must be positive", m.Name, got.Median)
		}
	}
	return nil
}

// checkLayerTable verifies a traced run measured every per-layer metric.
func (r *run) checkLayerTable() error {
	for _, m := range layers {
		if got := r.res.metric(m.Name); got == nil || got.Kind != KindLayer || got.N == 0 {
			return fmt.Errorf("per-layer metric %s was not measured", m.Name)
		}
	}
	return nil
}

// writeSpans saves the traced run's spans beside the result file.
func (r *run) writeSpans() error {
	path := strings.TrimSuffix(r.cfg.Out, ".json") + "-spans.json"
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 3

// setUp runs a workload's set-up setupRepeats times (once on a traced run,
// which reports no setup_s) and returns each one's seconds, less steal; the
// workload keeps what the last one built.
func (r *run) setUp(fn func() error) ([]float64, error) {
	n := setupRepeats
	if r.cfg.Trace {
		n = 1
	}
	var secs, raw []float64
	for i := 0; i < n; i++ {
		m, err := startMeter()
		if err != nil {
			return nil, err
		}
		if err := fn(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		wall, stolen, _, err := m.stop()
		if err != nil {
			return nil, err
		}
		secs, raw = append(secs, wall-stolen), append(raw, wall)
	}
	r.extra("setup_raw_s", "s", "lower", raw, "set-up wall time including steal")
	return secs, nil
}

// minPasses is the fewest timed passes a run makes.
const minPasses = 3

// passFunc runs one pass of a workload's fixed work, its spans under parent
// in tr, and returns the pass's wall seconds, the seconds stolen per CPU
// during them, and its CPU seconds.
type passFunc func(tr *Tracer, parent int) (wall, stolen, cpu float64, err error)

// runPasses times a workload's passes. A traced run makes one untraced and
// one traced pass, the latter under a span called name, and reports the
// difference as trace.overhead_pct. Otherwise passes repeat until share of
// the run's seconds has gone by and their count is odd and at least
// minPasses, so each median is one pass's own figure; the run then reports
// setup_s and each pass's wall_s (less steal), cpu_s and peak RSS of
// process pid, and keeps the raw wall time and the steal beside them.
func (r *run) runPasses(name string, pid int, share float64, setup []float64, pass passFunc) error {
	rss := startRSS(pid)
	defer rss.close()
	var walls, raw, steal, cpus, rssMB []float64
	one := func(tr *Tracer, parent int) error {
		if _, err := rss.take(); err != nil {
			return err
		}
		wall, stolen, cpu, err := pass(tr, parent)
		if err != nil {
			return err
		}
		peak, err := rss.take()
		if err != nil {
			return err
		}
		walls, raw, steal = append(walls, wall-stolen), append(raw, wall), append(steal, stolen)
		cpus, rssMB = append(cpus, cpu), append(rssMB, peak)
		return nil
	}
	if r.cfg.Trace {
		if err := one(nil, 0); err != nil {
			return err
		}
		root := r.tr.Begin(name, 0, 0)
		err := one(r.tr, root)
		r.tr.End(root, 1)
		if err != nil {
			return err
		}
		r.layer("trace.overhead_pct", 100*(walls[1]-walls[0])/walls[0])
		return nil
	}
	end := time.Now().Add(time.Duration(share * float64(r.cfg.Seconds) * float64(time.Second)))
	for n := 0; n < minPasses || n%2 == 0 || time.Now().Before(end); n++ {
		if err := one(nil, 0); err != nil {
			return err
		}
	}
	r.e2e("setup_s", setup)
	r.e2e("wall_s", walls)
	r.e2e("cpu_s", cpus)
	r.e2e("peak_rss_mb", rssMB)
	r.extra("wall_raw_s", "s", "lower", raw, "pass wall time including steal")
	r.extra("steal_s", "s", "lower", steal, "CPU time stolen per CPU during each pass")
	return nil
}

// cpuSelf is this process's user+system CPU time.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// seedFor derives a deterministic sub-seed for item i of the run's inputs.
func (r *run) seedFor(i int) int64 {
	return r.cfg.Seed*1000003 + int64(i)*7919 + 1
}
