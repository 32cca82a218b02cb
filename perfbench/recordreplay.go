package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"taopt/internal/bus/wire"
	"taopt/internal/corpus"
	"taopt/internal/export"
	"taopt/internal/harness"
	"taopt/internal/harness/fleet"
	"taopt/internal/obs"
)

// rrSpecs is the record-replay corpus: taopt-duration runs over four apps
// (one login-gated) and all three tools.
func rrSpecs(r *run) []probeSpec {
	pairs := []struct{ App, Tool string }{
		{"Filters For Selfie", "monkey"},
		{"Marvel Comics", "ape"},
		{"Sketch", "wctester"},
		{"WEBTOON", "monkey"},
	}
	out := make([]probeSpec, len(pairs))
	for i, p := range pairs {
		out[i] = probeSpec{App: p.App, Tool: p.Tool, Setting: "taopt-duration", Seed: r.seedFor(i)}
	}
	return out
}

// recording is one recorded run: its wire log and binary trace, and what
// every decode path must rebuild byte for byte. Export is the live v5 JSON
// export. A wire-log replay rebuilds Replayable, the same export without
// its telemetry block (the log does not carry the metrics registry), and
// re-derives the live decision log, Decisions.
type recording struct {
	Wire, Bin                     []byte
	Export, Replayable, Decisions []byte
	Events                        int
}

// record runs p on the wire transport with the wire log, binary trace and
// telemetry on, and writes the binary trace into dir.
func record(r *run, p probeSpec, dir string) (*recording, error) {
	cfg, err := r.runConfig(p)
	if err != nil {
		return nil, err
	}
	var wl, bt bytes.Buffer
	cfg.Transport = harness.TransportWire
	cfg.Telemetry = true
	cfg.WireLog = &wl
	cfg.BinTrace = &bt
	res, err := harness.Run(cfg)
	if err != nil {
		return nil, err
	}
	run := export.FromResult(res)
	rec := &recording{Wire: wl.Bytes(), Bin: bt.Bytes()}
	for _, inst := range run.Instances {
		rec.Events += len(inst.Events)
	}
	if rec.Export, err = exportBytes(run); err != nil {
		return nil, err
	}
	if rec.Decisions, err = json.Marshal(run.Telemetry.Decisions); err != nil {
		return nil, err
	}
	run.Telemetry = nil
	if rec.Replayable, err = exportBytes(run); err != nil {
		return nil, err
	}
	key := harness.CellKey{App: p.App, Tool: p.Tool, Setting: cfg.Setting}
	if err := os.WriteFile(filepath.Join(dir, harness.CellTraceName(key, p.Seed)), rec.Bin, 0o644); err != nil {
		return nil, err
	}
	return rec, nil
}

func exportBytes(run *export.Run) ([]byte, error) {
	var buf bytes.Buffer
	err := run.Write(&buf)
	return buf.Bytes(), err
}

// recordCorpus records every spec on the fleet pool into a fresh trace
// directory.
func recordCorpus(r *run, specs []probeSpec) ([]*recording, string, error) {
	dir, err := os.MkdirTemp(r.tmp, "corpus-")
	if err != nil {
		return nil, "", err
	}
	results := fleet.Map(r.workers, len(specs), func(i int) (*recording, error) {
		return record(r, specs[i], dir)
	})
	recs := make([]*recording, len(specs))
	for i, res := range results {
		r.op(res.Err)
		if res.Err != nil {
			return nil, "", res.Err
		}
		recs[i] = res.Value
	}
	return recs, dir, nil
}

// passClock times the calls of a pass, each as a span, and sums their
// wall, steal and CPU time; the output checks between calls stay outside
// the totals.
type passClock struct {
	wall, stolen, cpu float64
	tr                *Tracer
	parent            int
}

func (p *passClock) call(name string, req int, ops int64, fn func() error) error {
	m, err := startMeter()
	if err != nil {
		return err
	}
	sp := p.tr.Begin(name, p.parent, req)
	err = fn()
	p.tr.End(sp, ops)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	wall, stolen, cpu, err := m.stop()
	p.wall, p.stolen, p.cpu = p.wall+wall, p.stolen+stolen, p.cpu+cpu
	return err
}

// codecPass runs every recording through the public codec calls in turn —
// export.ReadBin, Run.Write, export.Read, Run.WriteBin,
// export.ReplayWireLog and wire.ReadLog — then corpus.ScanDir once over the
// trace directory. Each call is a span whose ops are the recording's trace
// events. After each recording's calls it checks their outputs: the bin
// decode, the JSON round trip and the re-encoded trace each rebuild the
// live export, and the wire replay rebuilds its replayable export and
// decision log. It returns the clock of the calls and the number of failed
// checks.
func codecPass(r *run, recs []*recording, dir string, tr *Tracer, parent int) (pc *passClock, bad int, err error) {
	pc = &passClock{tr: tr, parent: parent}
	fail := func(i int, what string, err error) {
		bad++
		r.logf("record-replay: recording %d: %s: %v", i, what, err)
	}
	for i, rec := range recs {
		var run, fromJSON, replayed *export.Run
		var decisions *obs.Log
		var js, bin bytes.Buffer
		ev := int64(rec.Events)
		for _, c := range []struct {
			name string
			fn   func() error
		}{
			{"export.bin_decode", func() (err error) { run, err = export.ReadBin(bytes.NewReader(rec.Bin)); return err }},
			{"export.json_encode", func() error { return run.Write(&js) }},
			{"export.json_decode", func() (err error) { fromJSON, err = export.Read(bytes.NewReader(js.Bytes())); return err }},
			{"export.bin_encode", func() error { return fromJSON.WriteBin(&bin) }},
			{"export.replay", func() (err error) {
				replayed, decisions, err = export.ReplayWireLog(bytes.NewReader(rec.Wire))
				return err
			}},
			{"wire.decode", func() error { _, err := wire.ReadLog(bytes.NewReader(rec.Wire)); return err }},
		} {
			if err := pc.call(c.name, i, ev, c.fn); err != nil {
				return nil, bad, err
			}
		}

		if !bytes.Equal(js.Bytes(), rec.Export) {
			fail(i, "bin decode", errors.New("export differs"))
		}
		if err := sameExport(fromJSON, rec.Export); err != nil {
			fail(i, "JSON round trip", err)
		}
		if back, err := export.ReadBin(bytes.NewReader(bin.Bytes())); err != nil {
			fail(i, "re-encoded bin", err)
		} else if err := sameExport(back, rec.Export); err != nil {
			fail(i, "re-encoded bin", err)
		}
		if err := sameExport(replayed, rec.Replayable); err != nil {
			fail(i, "wire replay", err)
		}
		if d, err := json.Marshal(decisions.Decisions()); err != nil || !bytes.Equal(d, rec.Decisions) {
			fail(i, "wire replay decision log", fmt.Errorf("differs from the live one (%v)", err))
		}
	}
	var stats []*corpus.RunStat
	if err := pc.call("corpus.scan", 0, int64(totalEvents(recs)), func() (err error) {
		stats, err = corpus.ScanDir(dir)
		return err
	}); err != nil {
		return nil, bad, err
	}
	scanned := 0
	for _, st := range stats {
		scanned += st.Events
	}
	if len(stats) != len(recs) || scanned != totalEvents(recs) {
		fail(0, "corpus scan", fmt.Errorf("%d runs and %d events, want %d and %d", len(stats), scanned, len(recs), totalEvents(recs)))
	}
	return pc, bad, nil
}

// sameExport reports whether run serialises to want.
func sameExport(run *export.Run, want []byte) error {
	got, err := exportBytes(run)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("export differs (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}

// codecLayers reports the record-format layer metrics from the codec spans
// of a traced pass over recs.
func codecLayers(r *run, recs []*recording) {
	by := ByName(r.tr.Spans())
	per := func(name string) float64 { return by[name].PerOpNS() }
	for _, n := range []string{"json_encode", "json_decode", "bin_encode", "bin_decode", "replay"} {
		r.layer("export."+n+"_ns_per_event", per("export."+n))
	}
	r.layer("wire.decode_ns_per_event", per("wire.decode"))
	r.layer("core.replay_self_ns_per_event", per("export.replay")-per("wire.decode"))
	r.layer("corpus.scan_ns_per_event", per("corpus.scan"))
	r.layer("export.record_bytes_per_event", bytesPerEvent(recs))
}

func bytesPerEvent(recs []*recording) float64 {
	var b, ev int
	for _, rec := range recs {
		b += len(rec.Wire) + len(rec.Bin)
		ev += rec.Events
	}
	return float64(b) / float64(ev)
}

// probeRecording times one recorded run against the same run plain
// (harness.record_overhead_pct) and returns the recording with its trace in
// a directory of its own.
func probeRecording(r *run, p probeSpec) (*recording, string, error) {
	cfg, err := r.runConfig(p)
	if err != nil {
		return nil, "", err
	}
	sp := r.tr.Begin("harness.run_plain", 0, 0)
	t0 := time.Now()
	_, err = harness.Run(cfg)
	plain := time.Since(t0)
	r.tr.End(sp, 1)
	r.op(err)
	if err != nil {
		return nil, "", err
	}
	dir, err := os.MkdirTemp(r.tmp, "probe-")
	if err != nil {
		return nil, "", err
	}
	sp = r.tr.Begin("harness.run_recorded", 0, 0)
	t0 = time.Now()
	rec, err := record(r, p, dir)
	recorded := time.Since(t0)
	r.tr.End(sp, 1)
	r.op(err)
	if err != nil {
		return nil, "", err
	}
	r.layer("harness.record_overhead_pct", 100*(recorded.Seconds()-plain.Seconds())/plain.Seconds())
	return rec, dir, nil
}

// probeCodec measures the record-format layers on one recording of the
// workload's inputs (grid and service, whose own passes use no codec).
func probeCodec(r *run, specs []probeSpec) error {
	rec, dir, err := probeRecording(r, firstTaOPT(specs))
	if err != nil {
		return err
	}
	recs := []*recording{rec}
	root := r.tr.Begin("codec.pass", 0, 0)
	_, bad, err := codecPass(r, recs, dir, r.tr, root)
	r.tr.End(root, 1)
	r.op(err)
	if err != nil {
		return err
	}
	r.check("codec.probe_rebuilds_export", bad == 0, "%d mismatches", bad)
	codecLayers(r, recs)
	return nil
}

func runRecordReplay(r *run) error {
	specs := rrSpecs(r)
	var recs []*recording
	var dir string
	setup, err := r.setUp(func() (err error) {
		recs, dir, err = recordCorpus(r, specs)
		return err
	})
	if err != nil {
		return err
	}
	r.logf("record-replay: recorded %d runs (%d events) in %.2fs", len(recs), totalEvents(recs), setup[len(setup)-1])

	bad, passes := 0, 0
	err = r.runPasses("record-replay.pass", os.Getpid(), 1, setup, func(tr *Tracer, parent int) (float64, float64, float64, error) {
		pc, failed, err := codecPass(r, recs, dir, tr, parent)
		for range recs {
			r.op(err)
		}
		bad += failed
		passes++
		if err != nil {
			return 0, 0, 0, err
		}
		return pc.wall, pc.stolen, pc.cpu, nil
	})
	if err != nil {
		return err
	}
	if r.cfg.Trace {
		codecLayers(r, recs)
		if err := probeCommon(r, specs); err != nil {
			return err
		}
		if err := probeServiceInProcess(r, specs); err != nil {
			return err
		}
		if _, _, err := probeRecording(r, specs[0]); err != nil {
			return err
		}
	}
	r.check("record-replay.rebuilds_export", bad == 0, "%d mismatches over %d passes of %d recordings", bad, passes, len(recs))
	r.extra("record_bytes_per_event", "B", "lower", []float64{bytesPerEvent(recs)}, "wire log + binary trace; exact per seed")
	return nil
}

func totalEvents(recs []*recording) int {
	n := 0
	for _, rec := range recs {
		n += rec.Events
	}
	return n
}
