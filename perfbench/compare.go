package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// exactMetrics are results of the simulation, not timings: for a given
// seed they are exact, so any difference between two sides on a shared seed
// means the program's behaviour changed.
var exactMetrics = map[string]bool{
	"coverage_gain_pct": true, "resource_saved_pct": true, "record_bytes_per_event": true,
}

// compareMain prints, for every (workload, metric) measured on both sides,
// each side's median and quartiles and a verdict against the benchmark's
// bounds. Each side is a result file or a directory of them; with several
// runs a side's distribution is over the runs' medians, with one run over
// that run's own samples.
func compareMain(args []string, w io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare OLD NEW (each a result file or a directory of them)")
	}
	old, err := loadResults(args[0])
	if err != nil {
		return err
	}
	cur, err := loadResults(args[1])
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median [q1, q3] n\tnew median [q1, q3] n\tchange\tverdict")
	for _, k := range sortedKeys(old, cur) {
		o, n := old[k], cur[k]
		if o == nil || n == nil {
			continue
		}
		so, sn := side(o), side(n)
		def := o[0]
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%s\n", k.workload, k.metric, def.Unit,
			fmtSide(so), fmtSide(sn), 100*relChange(so.Median, sn.Median), verdict(def.Metric, o, n, so, sn))
	}
	return tw.Flush()
}

type cmpKey struct{ workload, metric string }

// seeded is one run's value of a metric.
type seeded struct {
	Metric
	Seed int64
}

// loadResults reads a result file, or every result file in a directory,
// grouped by (workload, metric).
func loadResults(path string) (map[cmpKey][]seeded, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	out := map[cmpKey][]seeded{}
	for _, f := range files {
		if strings.HasSuffix(f, "-spans.json") {
			continue
		}
		r, err := readResult(f)
		if err != nil {
			return nil, err
		}
		for _, m := range r.Metrics {
			k := cmpKey{r.Workload, m.Name}
			out[k] = append(out[k], seeded{Metric: m, Seed: r.Seed})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no results", path)
	}
	return out, nil
}

func sortedKeys(a, b map[cmpKey][]seeded) []cmpKey {
	seen := map[cmpKey]bool{}
	var keys []cmpKey
	for _, m := range []map[cmpKey][]seeded{a, b} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	return keys
}

// side is one side's distribution: over the runs' medians, or over one
// run's samples.
func side(runs []seeded) Summary {
	if len(runs) == 1 {
		return runs[0].Summary
	}
	meds := make([]float64, len(runs))
	for i, r := range runs {
		meds[i] = r.Median
	}
	return Summarize(meds)
}

func fmtSide(s Summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", s.Median, s.Q1, s.Q3, s.N)
}

func relChange(old, cur float64) float64 {
	if old == 0 {
		return 0
	}
	return (cur - old) / math.Abs(old)
}

// verdict judges new against old. Exact metrics compare seed by seed.
// Otherwise "worse" means the median moved the wrong way by more than the
// bound; "better" that it moved the right way by more than the bound and
// the old side's spread, with the quartile ranges apart; "unresolved" that
// either side's spread exceeds the bound (or there is no bound) and the
// ranges overlap; "unchanged" the rest.
func verdict(def Metric, old, cur []seeded, so, sn Summary) string {
	if exactMetrics[def.Name] {
		return exactVerdict(old, cur)
	}
	sign := 1.0 // positive gain = better
	if def.Better == "lower" {
		sign = -1
	}
	gain := sign * relChange(so.Median, sn.Median)
	var bound float64
	for _, m := range endToEnd {
		if m.Name == def.Name && def.Kind == KindEndToEnd {
			bound = m.Bound
		}
	}
	apart := sn.Q3 < so.Q1 || sn.Q1 > so.Q3
	switch {
	case bound > 0 && gain < -bound:
		return "worse"
	case gain > math.Max(bound, so.Spread()) && apart:
		return "better"
	case bound == 0 && gain < 0 && apart:
		return "worse"
	case bound == 0 || so.Spread() > bound || sn.Spread() > bound:
		return "unresolved"
	default:
		return "unchanged"
	}
}

func exactVerdict(old, cur []seeded) string {
	byseed := map[int64]float64{}
	for _, r := range old {
		byseed[r.Seed] = r.Median
	}
	shared, differ := 0, 0
	for _, r := range cur {
		if v, ok := byseed[r.Seed]; ok {
			shared++
			if v != r.Median {
				differ++
			}
		}
	}
	switch {
	case shared == 0:
		return "unresolved (no shared seed)"
	case differ > 0:
		return fmt.Sprintf("changed on %d of %d seeds", differ, shared)
	default:
		return fmt.Sprintf("identical on %d seeds", shared)
	}
}
