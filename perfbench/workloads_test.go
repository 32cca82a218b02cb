package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"

	"taopt/internal/service"
)

// buildTaoptd builds the service binary the service workload boots.
func buildTaoptd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "taoptd")
	out, err := exec.Command("go", "build", "-o", bin, "taopt/cmd/taoptd").CombinedOutput()
	if err != nil {
		t.Fatalf("building taoptd: %v\n%s", err, out)
	}
	return bin
}

// Every workload, untraced and traced, at tiny size: all output checks run
// and pass, no operation fails, and the result line carries exactly the
// metrics of its kind.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	taoptd := buildTaoptd(t)
	grid := []string{"grid.passes_identical", "grid.serial_matches_pooled"}
	probes := []string{"steps.twin_in_lockstep", "cells.pooled_matches_serial"}
	wantChecks := map[string][]string{
		"grid/false":          grid,
		"grid/true":           append(append(grid, probes...), "codec.probe_rebuilds_export"),
		"record-replay/false": {"record-replay.rebuilds_export"},
		"record-replay/true":  append(probes, "record-replay.rebuilds_export"),
		"service/false":       {"service.requests_valid"},
		"service/true":        append(probes, "codec.probe_rebuilds_export"),
	}
	for _, wl := range []string{"grid", "record-replay", "service"} {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl, trace), func(t *testing.T) {
				res, err := execute(config{
					Root: "..", Taoptd: taoptd, GitSHA: "test", Workload: wl, Seed: 3,
					Seconds: 1, Trace: trace, Tiny: true, Out: filepath.Join(t.TempDir(), "result.json"),
				}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					var buf bytes.Buffer
					res.printTable(&buf)
					t.Fatalf("run not correct:\n%s", buf.String())
				}
				checks := map[string]bool{}
				for _, c := range res.Checks {
					checks[c.Name] = true
				}
				for _, name := range wantChecks[fmt.Sprintf("%s/%v", wl, trace)] {
					if !checks[name] {
						t.Errorf("check %s did not run (ran %v)", name, res.Checks)
					}
				}

				kind, defs := KindEndToEnd, endToEnd
				if trace {
					kind, defs = KindLayer, layers
				}
				line := res.resultLine(kind)
				var got, exp []string
				for name := range line.Metrics {
					got = append(got, name)
				}
				for _, d := range defs {
					exp = append(exp, d.Name)
				}
				sort.Strings(got)
				sort.Strings(exp)
				if fmt.Sprint(got) != fmt.Sprint(exp) {
					t.Errorf("result line metrics = %v, want %v", got, exp)
				}
				if res.Env.NumCPU == 0 || res.Env.GoVersion == "" || res.Env.SourceSHA256 == "" || res.Env.GitSHA != "test" {
					t.Errorf("environment stamp incomplete: %+v", res.Env)
				}
			})
		}
	}
}

// The record-replay check fails when a decode path does not rebuild the
// recorded export.
func TestCodecCheckCatchesMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("records a run")
	}
	r := &run{cfg: config{Tiny: true, Seed: 5}, res: &Result{}, workers: 1, tmp: t.TempDir(), log: io.Discard}
	recs, dir, err := recordCorpus(r, rrSpecs(r)[:1])
	if err != nil {
		t.Fatal(err)
	}
	if _, bad, err := codecPass(r, recs, dir, nil, 0); err != nil || bad != 0 {
		t.Fatalf("clean recording: %d failed checks, err %v", bad, err)
	}
	recs[0].Export = append([]byte(nil), recs[0].Export...)
	recs[0].Export[len(recs[0].Export)/2] ^= 1
	recs[0].Replayable = recs[0].Replayable[:len(recs[0].Replayable)-1]
	if _, bad, err := codecPass(r, recs, dir, nil, 0); err != nil || bad != 4 {
		t.Fatalf("tampered recording: %d failed checks (want 4: bin decode, JSON round trip, re-encoded bin, replay), err %v", bad, err)
	}
}

// The grid digest covers the fields the renderers read.
func TestDigestCellsSeesEveryRun(t *testing.T) {
	if testing.Short() {
		t.Skip("computes grid cells")
	}
	r := &run{cfg: config{Tiny: true, Seed: 2}, res: &Result{}, workers: 2, log: io.Discard}
	g, serial, err := gridSetup(r)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := gridPass(r, g, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := digestCells(cells[1:2]); got != serial {
		t.Fatalf("pooled cell digest %s != serial %s", got, serial)
	}
	before := digestCells(cells)
	cells[4].Timeline[len(cells[4].Timeline)-1].Covered++
	if digestCells(cells) == before {
		t.Fatal("changing one timeline point left the digest unchanged")
	}
}

// A hit must serve the offline export: it passes against the offline
// digest and fails against any other.
func TestHitComparesWithOfflineExport(t *testing.T) {
	if testing.Short() {
		t.Skip("computes a run")
	}
	r := &run{cfg: config{Tiny: true, Seed: 4}, res: &Result{}, workers: 1, tmp: t.TempDir(), log: io.Discard}
	svc, err := service.New(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	hs := httptest.NewServer(service.NewHandler(svc))
	defer hs.Close()
	c := newClient(hs.URL, 1)
	defer c.close()

	spec := serviceSpecs(r)[:1]
	warmSet, _, err := warm(r, c, spec, make([][32]byte, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.hit(c, warmSet[0], "wrong digest", nil, 0, 0); err == nil {
		t.Fatal("a hit passed against a digest that is not the served export's")
	}
	wants, err := offlineExports(r, spec)
	if err != nil {
		t.Fatal(err)
	}
	warmSet[0].want = wants[0]
	if err := r.hit(c, warmSet[0], "offline digest", nil, 0, 0); err != nil {
		t.Fatalf("hit against the offline export: %v", err)
	}
}
