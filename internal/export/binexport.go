package export

import (
	"fmt"
	"io"

	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/trace/bin"
	"taopt/internal/ui"
)

// WriteBin serialises the run in the compact binary trace format
// (internal/trace/bin) — the storage twin of the JSON view. The record order
// is canonical: header, events grouped per instance, timeline samples,
// decisions, instance summaries, subspaces, screens, transport, metrics,
// end. ReadBin(WriteBin(r)) == r, and re-encoding that is a byte fixed
// point. (A live harness stream interleaves events across instances instead
// of grouping them; ReadBin regroups, so both forms decode to the same Run.)
func (r *Run) WriteBin(w io.Writer) error {
	bw := bin.NewWriter(w, bin.Header{
		App:           r.App,
		Tool:          r.Tool,
		Setting:       r.Setting,
		Seed:          r.Seed,
		ScenarioHash:  r.ScenarioHash,
		ExportVersion: r.Version,
		Telemetry:     r.Telemetry != nil,
		Faults:        r.Transport != nil,
	})
	for _, inst := range r.Instances {
		for _, ev := range inst.Events {
			tev, err := toTraceEvent(inst.ID, ev)
			if err != nil {
				return err
			}
			bw.Event(tev)
		}
	}
	for _, p := range r.Timeline {
		bw.Sample(bin.Sample{
			WallNS: p.WallNS, MachineNS: p.MachineNS,
			Covered: p.Covered, Crashes: p.Crashes, AJS: p.AJS,
		})
	}
	if r.Telemetry != nil {
		for _, d := range r.Telemetry.Decisions {
			bw.Decision(d)
		}
	}
	for _, inst := range r.Instances {
		sum := bin.InstanceSummary{
			ID:          inst.ID,
			AllocatedNS: inst.AllocatedNS,
			ReleasedNS:  inst.ReleasedNS,
			Failed:      inst.Failed,
			Coverage:    inst.Coverage,
		}
		for _, cr := range inst.Crashes {
			sum.Crashes = append(sum.Crashes, bin.Crash{
				Signature: cr.Signature, AtNS: cr.AtNS, Frames: cr.Frames,
			})
		}
		bw.Instance(sum)
	}
	for _, sub := range r.Subspaces {
		bw.Subspace(bin.Subspace{
			ID: sub.ID, Entry: sub.Entry, Members: sub.Members,
			Owner: sub.Owner, FoundNS: sub.FoundNS,
		})
	}
	for _, s := range r.Screens {
		bw.Screen(bin.Screen{Sig: s.Signature, Activity: s.Activity, Nodes: s.Nodes})
	}
	if t := r.Transport; t != nil {
		bt := bin.Transport{
			Events: t.Events, Delivered: t.Delivered, Commands: t.Commands,
			CommandFailures: t.CommandFailures, Dropped: t.Dropped,
			Delayed: t.Delayed, Deaths: t.Deaths, Hangs: t.Hangs,
			AllocFailures: t.AllocFailures, LostCommands: t.LostCommands,
			FailedInstances: t.FailedInstances, OrphansPending: t.OrphansPending,
		}
		if m := t.CommandMix; m != nil {
			bt.HasMix = true
			bt.Mix = [6]int{m.Allocate, m.Deallocate, m.BlockWidget, m.BlockMember, m.Kill, m.Hang}
		}
		bw.Transport(bt)
	}
	if r.Telemetry != nil {
		for _, m := range r.Telemetry.Metrics {
			bw.Metric(m)
		}
	}
	bw.End(bin.End{
		WallNS:    r.WallUsedNS,
		MachineNS: r.MachineUsedNS,
		Coverage:  r.Coverage, UniqueCrashes: r.UniqueCrashes,
	})
	return bw.Close()
}

// --- record → export conversions (FromResult, ReadBin and replay) ---------

// runOf starts a Run from a stream header: identity, schema version, and
// an empty telemetry block when the run collected telemetry.
func runOf(h bin.Header) *Run {
	out := &Run{
		Version:      FormatVersion,
		App:          h.App,
		Tool:         h.Tool,
		Setting:      h.Setting,
		Seed:         h.Seed,
		ScenarioHash: h.ScenarioHash,
	}
	if h.Telemetry {
		out.Telemetry = &Telemetry{}
	}
	return out
}

func (r *Run) setEnd(e bin.End) {
	r.WallUsedNS = e.WallNS
	r.MachineUsedNS = e.MachineNS
	r.Coverage = e.Coverage
	r.UniqueCrashes = e.UniqueCrashes
}

func eventOf(ev trace.Event) Event {
	return Event{
		AtNS:     int64(ev.At),
		Kind:     ev.Action.Kind.String(),
		Widget:   string(ev.Action.Widget),
		From:     uint64(ev.From),
		To:       uint64(ev.To),
		Activity: ev.Activity,
		Crashed:  ev.Crashed,
		Enforced: ev.Enforced,
	}
}

// toTraceEvent converts the JSON event shape back to the trace type; an
// unknown kind string is an error.
func toTraceEvent(inst int, ev Event) (trace.Event, error) {
	kind, err := parseKind(ev.Kind)
	return trace.Event{
		Instance: inst,
		At:       sim.Duration(ev.AtNS),
		Action:   trace.Action{Kind: kind, Widget: ui.WidgetPath(ev.Widget)},
		From:     ui.Signature(ev.From),
		To:       ui.Signature(ev.To),
		Activity: ev.Activity,
		Crashed:  ev.Crashed,
		Enforced: ev.Enforced,
	}, err
}

func parseKind(s string) (trace.ActionKind, error) {
	switch s {
	case "launch":
		return trace.ActionLaunch, nil
	case "tap":
		return trace.ActionTap, nil
	case "back":
		return trace.ActionBack, nil
	default:
		return 0, fmt.Errorf("export: unknown event kind %q", s)
	}
}

// instanceOf converts a lease summary; the caller attaches the events.
func instanceOf(s bin.InstanceSummary) Instance {
	inst := Instance{
		ID:          s.ID,
		AllocatedNS: s.AllocatedNS,
		ReleasedNS:  s.ReleasedNS,
		Coverage:    s.Coverage,
		Failed:      s.Failed,
	}
	for _, cr := range s.Crashes {
		inst.Crashes = append(inst.Crashes, Crash{Signature: cr.Signature, AtNS: cr.AtNS, Frames: cr.Frames})
	}
	return inst
}

func pointOf(s bin.Sample) Point {
	return Point{WallNS: s.WallNS, MachineNS: s.MachineNS, Covered: s.Covered, Crashes: s.Crashes, AJS: s.AJS}
}

func subspaceOf(s bin.Subspace) Subspace {
	return Subspace{ID: s.ID, Entry: s.Entry, Members: s.Members, Owner: s.Owner, FoundNS: s.FoundNS}
}

func screenOf(s bin.Screen) Screen {
	return Screen{Signature: s.Sig, Activity: s.Activity, Nodes: s.Nodes}
}

func transportOf(t bin.Transport) *Transport {
	out := &Transport{
		Events: t.Events, Delivered: t.Delivered, Commands: t.Commands,
		CommandFailures: t.CommandFailures, Dropped: t.Dropped,
		Delayed: t.Delayed, Deaths: t.Deaths, Hangs: t.Hangs,
		AllocFailures: t.AllocFailures, LostCommands: t.LostCommands,
		FailedInstances: t.FailedInstances, OrphansPending: t.OrphansPending,
	}
	if t.HasMix {
		out.CommandMix = &CommandMix{
			Allocate: t.Mix[0], Deallocate: t.Mix[1],
			BlockWidget: t.Mix[2], BlockMember: t.Mix[3],
			Kill: t.Mix[4], Hang: t.Mix[5],
		}
	}
	return out
}

// --- stream → Run ---------------------------------------------------------

// runBuilder folds a stream's shared records into a Run. Slice and pointer
// fields are materialised only when their records (or header flags)
// appear, so the nil-versus-empty distinctions of the JSON schema survive
// the round trip.
type runBuilder struct {
	run    *Run
	events map[int][]Event
	sawEnd bool
}

func newRunBuilder(h bin.Header) (*runBuilder, error) {
	if h.ExportVersion != FormatVersion {
		return nil, fmt.Errorf("export: unsupported format version %d in binary trace (want %d)", h.ExportVersion, FormatVersion)
	}
	return &runBuilder{run: runOf(h), events: make(map[int][]Event)}, nil
}

// add folds one record in. Protocol records are not part of the export and
// are skipped.
func (b *runBuilder) add(rec *bin.Record) error {
	if b.sawEnd {
		return fmt.Errorf("%w: %v record after end", bin.ErrCorrupt, rec.Kind)
	}
	out := b.run
	switch rec.Kind {
	case bin.KindEvent:
		ev := rec.Event
		b.events[ev.Instance] = append(b.events[ev.Instance], eventOf(ev))
	case bin.KindSample:
		out.Timeline = append(out.Timeline, pointOf(rec.Sample))
	case bin.KindDecision:
		if out.Telemetry == nil {
			return fmt.Errorf("%w: decision record without telemetry header flag", bin.ErrCorrupt)
		}
		out.Telemetry.Decisions = append(out.Telemetry.Decisions, rec.Decision)
	case bin.KindInstance:
		inst := instanceOf(*rec.Summary)
		inst.Events = b.events[inst.ID]
		out.Instances = append(out.Instances, inst)
	case bin.KindSubspace:
		out.Subspaces = append(out.Subspaces, subspaceOf(*rec.Subspace))
	case bin.KindScreen:
		out.Screens = append(out.Screens, screenOf(rec.Screen))
	case bin.KindTransport:
		out.Transport = transportOf(*rec.Transport)
	case bin.KindMetric:
		if out.Telemetry == nil {
			return fmt.Errorf("%w: metric record without telemetry header flag", bin.ErrCorrupt)
		}
		out.Telemetry.Metrics = append(out.Telemetry.Metrics, *rec.Metric)
	case bin.KindEnd:
		out.setEnd(rec.End)
		b.sawEnd = true
	case bin.KindRunConfig, bin.KindScreenDef, bin.KindDelivered, bin.KindCommand,
		bin.KindReply, bin.KindFate, bin.KindLease, bin.KindTick, bin.KindRunEnd:
	case bin.KindHeader, bin.KindStrDef, bin.KindSigDef:
		// The Reader consumes header and interning records internally;
		// one surfacing from Next means the stream (or Reader) is broken.
		return fmt.Errorf("%w: %v record surfaced mid-stream", bin.ErrCorrupt, rec.Kind)
	default:
		return fmt.Errorf("%w: unexpected %v record", bin.ErrCorrupt, rec.Kind)
	}
	return nil
}

func (b *runBuilder) finish() (*Run, error) {
	if !b.sawEnd {
		return nil, fmt.Errorf("%w: stream ends without end record", bin.ErrCorrupt)
	}
	return b.run, nil
}

// ReadBin streams a binary trace — or a wire log, whose protocol records it
// skips — back into the Run form. The rebuilt Run is byte-identical (as
// JSON) to the export the writing run would have produced directly.
func ReadBin(rd io.Reader) (*Run, error) {
	br, err := bin.NewReader(rd)
	if err != nil {
		return nil, err
	}
	b, err := newRunBuilder(br.Header())
	if err != nil {
		return nil, err
	}
	for {
		rec, err := br.Next()
		if err == io.EOF {
			return b.finish()
		}
		if err != nil {
			return nil, err
		}
		if err := b.add(&rec); err != nil {
			return nil, err
		}
	}
}
