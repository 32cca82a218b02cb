package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Metric kinds: what the result line carries (end-to-end without tracing,
// per-layer with it) and the workload-only figures that stay in the result
// file and compare reports.
const (
	KindEndToEnd = "end_to_end"
	KindWorkload = "workload"
	KindLayer    = "per_layer"
)

// Metric is one measured figure with its samples reduced to a Summary.
type Metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Kind   string `json:"kind"`
	Summary
	Samples []float64 `json:"samples,omitempty"`
	Note    string    `json:"note,omitempty"`
	// Moves is a per-layer metric's target: the end-to-end metric a change
	// to the layer should move, and on which workload.
	Moves string `json:"moves,omitempty"`
}

// Check is one output-correctness check.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Env stamps where and on what a result was measured.
type Env struct {
	NumCPU       int    `json:"num_cpu"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	GOOS         string `json:"goos"`
	GOARCH       string `json:"goarch"`
	CPUModel     string `json:"cpu_model,omitempty"`
	Machine      string `json:"machine,omitempty"`
	Kernel       string `json:"kernel,omitempty"`
	Host         string `json:"host,omitempty"`
	GitSHA       string `json:"git_sha"`
	SourceSHA256 string `json:"source_sha256"`
	Started      string `json:"started"`
}

// Result is everything one run measured; it is written to the result file
// and reduced to the result line.
type Result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Seconds   int      `json:"seconds"`
	Env       Env      `json:"env"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Checks    []Check  `json:"checks"`
	Metrics   []Metric `json:"metrics"`
	// CrossCheck is the CPU-profile cross-check of a traced run.
	CrossCheck []CrossRow `json:"cross_check,omitempty"`
	// Spans sums a traced run's spans by name.
	Spans []SpanRow `json:"spans,omitempty"`
}

// SpanRow is the total and self time of the spans sharing a name.
type SpanRow struct {
	Name    string  `json:"name"`
	Spans   int     `json:"spans"`
	Ops     int64   `json:"ops"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// spanRows folds spans into rows sorted by name.
func spanRows(spans []Span) []SpanRow {
	by := ByName(spans)
	rows := make([]SpanRow, 0, len(by))
	for name, st := range by {
		rows = append(rows, SpanRow{Name: name, Spans: st.Spans, Ops: st.Ops,
			TotalMS: float64(st.TotalNS) / 1e6, SelfMS: float64(st.SelfNS) / 1e6})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// metric returns the named metric, or nil.
func (r *Result) metric(name string) *Metric {
	for i := range r.Metrics {
		if r.Metrics[i].Name == name {
			return &r.Metrics[i]
		}
	}
	return nil
}

// ResultLine is the one-line JSON object the run ends its stdout with.
type ResultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]LineValue `json:"metrics"`
}

// LineValue is one metric on the result line: the run's median.
type LineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine reduces r to the metrics of one kind.
func (r *Result) resultLine(kind string) ResultLine {
	line := ResultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]LineValue{}}
	for _, m := range r.Metrics {
		if m.Kind == kind {
			line.Metrics[m.Name] = LineValue{Value: m.Median, Unit: m.Unit}
		}
	}
	return line
}

// printTable writes every metric of r, by name with its unit, to w.
func (r *Result) printTable(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d trace %v: correct=%v attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Trace, r.Correct, r.Attempted, r.Failed)
	fmt.Fprintf(w, "env: %d CPU (%s), GOMAXPROCS %d, %s %s/%s, git %s, source %.12s\n",
		r.Env.NumCPU, r.Env.CPUModel, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.GOOS, r.Env.GOARCH, r.Env.GitSHA, r.Env.SourceSHA256)
	for _, c := range r.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %s %s\n", status, c.Name, c.Detail)
	}
	fmt.Fprintf(w, "  %-40s %-8s %14s %14s %14s %6s  %s\n", "metric", "unit", "median", "q1", "q3", "n", "kind")
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "  %-40s %-8s %14.6g %14.6g %14.6g %6d  %s %s\n", m.Name, m.Unit, m.Median, m.Q1, m.Q3, m.N, m.Kind, m.Note)
	}
	for _, row := range r.Spans {
		fmt.Fprintf(w, "  span %-36s %7d spans %10d ops %12.3fms total %12.3fms self\n", row.Name, row.Spans, row.Ops, row.TotalMS, row.SelfMS)
	}
	for _, row := range r.CrossCheck {
		flag := ""
		if row.Flagged {
			flag = "  <-- disagrees"
		}
		fmt.Fprintf(w, "  cross-check %-28s profile %5.1f%%  timed %5.1f%%%s\n", row.Name, 100*row.Profile, 100*row.Timed, flag)
	}
}

// writeFile writes r as indented JSON to path, creating its directory.
func (r *Result) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readResult loads a result file.
func readResult(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// stampEnv describes this process and the source tree at root.
func stampEnv(root, gitSHA string) Env {
	e := Env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		GitSHA:     gitSHA,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		e.Machine, e.Kernel, e.Host = utsString(u.Machine[:]), utsString(u.Release[:]), utsString(u.Nodename[:])
	}
	e.SourceSHA256 = sourceDigest(root)
	return e
}

func utsString[T int8 | uint8](b []T) string {
	var sb strings.Builder
	for _, c := range b {
		if c == 0 {
			break
		}
		sb.WriteByte(byte(c))
	}
	return sb.String()
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("" if absent).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// sourceDigest hashes every go.mod and .go file under root (skipping
// dot-directories), so a result names the code it measured even where the
// tree is not a git checkout.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
