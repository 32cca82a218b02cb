package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"

	"taopt/internal/bus/wire"
	"taopt/internal/export"
	"taopt/internal/trace/bin"
	"taopt/internal/ui"
)

// wirelogMain implements the wirelog subcommand: dump a recorded
// coordination message log, diff two logs record by record, or replay a
// log into the run's export without re-running any tool decision logic. A
// wire log is also a binary trace: saved as *.taoptb, `tracetool corpus`
// scans it like any other run.
//
//	tracetool wirelog run.wirelog
//	tracetool wirelog a.wirelog b.wirelog
//	tracetool wirelog -replay run.wirelog
//	tracetool wirelog -replay-out run.json run.wirelog
func wirelogMain(args []string) {
	fs := flag.NewFlagSet("tracetool wirelog", flag.ExitOnError)
	replay := fs.Bool("replay", false, "replay the log and print the SHA-256 of the reproduced export")
	replayOut := fs.String("replay-out", "", "replay the log and write the reproduced export JSON to this file")
	fs.Parse(args)

	switch {
	case *replay || *replayOut != "":
		if fs.NArg() != 1 {
			fatalf("usage: tracetool wirelog [-replay] [-replay-out run.json] <run.wirelog>")
		}
		replayLog(fs.Arg(0), *replayOut)
	case fs.NArg() == 1:
		dumpLog(fs.Arg(0))
	case fs.NArg() == 2:
		diffLogs(fs.Arg(0), fs.Arg(1))
	default:
		fatalf("usage: tracetool wirelog [-replay] [-replay-out run.json] <run.wirelog> [other.wirelog]")
	}
}

func readWireLog(path string) *wire.Log {
	f, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	log, err := wire.ReadLog(f)
	if err != nil {
		fatalf("%s: %v", path, err)
	}
	return log
}

func dumpLog(path string) {
	log := readWireLog(path)
	h, c := log.Header, log.Config
	fmt.Printf("wire log:  %s\n", path)
	fmt.Printf("run:       %s / %s / %s (seed %d, %d instances, %d devices)\n",
		h.App, h.Tool, h.Setting, h.Seed, c.Instances, c.MaxDevices)
	fmt.Printf("faults:    %v  telemetry: %v  core-override: %v\n", h.Faults, h.Telemetry, c.CoreOverride)
	fmt.Printf("records:   %d\n\n", len(log.Records))
	for _, rec := range log.Records {
		fmt.Println(recordLine(rec))
	}
}

func diffLogs(pathA, pathB string) {
	a, b := readWireLog(pathA), readWireLog(pathB)
	if a.Header != b.Header || a.Config != b.Config {
		fmt.Printf("headers differ:\n- %+v %+v\n+ %+v %+v\n", a.Header, a.Config, b.Header, b.Config)
		os.Exit(1)
	}
	n := min(len(a.Records), len(b.Records))
	for i := 0; i < n; i++ {
		if la, lb := recordLine(a.Records[i]), recordLine(b.Records[i]); la != lb {
			fmt.Printf("first divergence at record %d:\n- %s\n+ %s\n", i, la, lb)
			os.Exit(1)
		}
	}
	if len(a.Records) != len(b.Records) {
		fmt.Printf("logs agree for %d records, then lengths differ: %d vs %d\n", n, len(a.Records), len(b.Records))
		os.Exit(1)
	}
	fmt.Printf("logs identical: %d records\n", n)
}

// recordLine renders one wire-log record as a stable human-readable line:
// the virtual time in seconds, the record kind, then its fields.
func recordLine(rec bin.Record) string {
	line := func(atNS int64, format string, args ...any) string {
		return strings.TrimRight(fmt.Sprintf("%12.3f %-9s ", float64(atNS)/1e9, rec.Kind)+fmt.Sprintf(format, args...), " ")
	}
	switch rec.Kind {
	case bin.KindEvent, bin.KindDelivered:
		ev, at := rec.Event, int64(rec.Event.At)
		if rec.Kind == bin.KindDelivered {
			at = rec.AtNS
		}
		return line(at, "inst=%d %s %v->%v crashed=%v enforced=%v", ev.Instance, ev.Action.Kind, ev.From, ev.To, ev.Crashed, ev.Enforced)
	case bin.KindScreenDef:
		return line(rec.AtNS, "%v activity=%s nodes=%d", ui.Signature(rec.Def.Sig), rec.Def.Screen.Activity, rec.Def.Screen.Root.Size())
	case bin.KindCommand, bin.KindFate:
		c := wire.CommandOf(rec.Cmd)
		return line(rec.AtNS, "%s inst=%d screen=%v widget=%q", c.Kind, c.Instance, c.Screen, c.Widget)
	case bin.KindReply:
		r := wire.ReplyOf(rec.Reply)
		if r.Err != nil {
			return line(rec.AtNS, "inst=%d err=%s", r.Instance, r.Err)
		}
		return line(rec.AtNS, "inst=%d", r.Instance)
	case bin.KindLease:
		return line(rec.AtNS, "inst=%d", rec.Lease)
	case bin.KindTick:
		return line(rec.AtNS, "")
	case bin.KindRunEnd, bin.KindTransport:
		t := rec.Transport
		return line(rec.AtNS, "published=%d delivered=%d commands=%d failed=%d orphans=%d", t.Events, t.Delivered, t.Commands, t.FailedInstances, t.OrphansPending)
	case bin.KindSample:
		s := rec.Sample
		return line(s.WallNS, "covered=%d crashes=%d machine=%.3f", s.Covered, s.Crashes, float64(s.MachineNS)/1e9)
	case bin.KindDecision:
		d := rec.Decision
		return line(d.AtNS, "%s inst=%d sub=%d reason=%q", d.Kind, d.Instance, d.Sub, d.Reason)
	case bin.KindInstance:
		s := rec.Summary
		return line(s.ReleasedNS, "inst=%d alloc=%.3f failed=%v coverage=%d crashes=%d", s.ID, float64(s.AllocatedNS)/1e9, s.Failed, s.Coverage, len(s.Crashes))
	case bin.KindSubspace:
		s := rec.Subspace
		return line(s.FoundNS, "id=%d entry=%v owner=%d members=%d", s.ID, ui.Signature(s.Entry), s.Owner, len(s.Members))
	case bin.KindScreen:
		return line(0, "%v activity=%s nodes=%d", ui.Signature(rec.Screen.Sig), rec.Screen.Activity, rec.Screen.Nodes)
	case bin.KindMetric:
		return line(0, "%s %s value=%g", rec.Metric.Name, rec.Metric.Type, rec.Metric.Value)
	case bin.KindEnd:
		e := rec.End
		return line(e.WallNS, "coverage=%d crashes=%d machine=%.3f", e.Coverage, e.UniqueCrashes, float64(e.MachineNS)/1e9)
	case bin.KindHeader, bin.KindStrDef, bin.KindSigDef, bin.KindRunConfig:
		// Consumed by the reader before the record list.
	}
	return line(rec.AtNS, "")
}

func replayLog(path, outPath string) {
	f, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	run, decisions, err := export.ReplayWireLog(f)
	if err != nil {
		fatalf("%v", err)
	}

	sum := sha256.New()
	if err := run.Write(sum); err != nil {
		fatalf("serialising replayed export: %v", err)
	}
	fmt.Printf("replayed:  %s / %s / %s (seed %d)\n", run.App, run.Tool, run.Setting, run.Seed)
	fmt.Printf("coverage:  %d methods, %d unique crashes, %d instances, %d subspaces\n",
		run.Coverage, run.UniqueCrashes, len(run.Instances), len(run.Subspaces))
	fmt.Printf("decisions: %d re-derived\n", decisions.Len())
	fmt.Printf("export sha256: %s\n", hex.EncodeToString(sum.Sum(nil)))

	if outPath != "" {
		out, err := os.Create(outPath)
		if err != nil {
			fatalf("%v", err)
		}
		if err := run.Write(out); err != nil {
			fatalf("writing replayed export: %v", err)
		}
		if err := out.Close(); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("replayed export written to %s\n", outPath)
	}
}
