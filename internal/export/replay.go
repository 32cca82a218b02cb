// Replay: re-derive a run's export from its recorded wire log.
//
// A wire log (see internal/bus/wire) is the run's binary trace plus the
// protocol records of its full bidirectional message record: post-fault
// deliveries, every Command/Reply exchange, and the boundary effects
// (leases, screen definitions, ticks, the transport's final accounting).
// Those records are sufficient to re-drive the coordinator — and only the
// coordinator — without the farm, the testing tools or the fault plan:
// tool decisions are replayed from the recorded events, never re-run.
//
// Replay is strict. The coordinator's sends are matched record-for-record
// against the recorded exchanges; any divergence (a command the log does
// not carry next, a count that does not reconcile with the recorded run
// totals) is an error, not a best-effort continuation. A wire log either
// reproduces its run byte-for-byte or it fails loudly.
package export

import (
	"fmt"
	"io"
	"sort"

	"taopt/internal/bus"
	"taopt/internal/bus/wire"
	"taopt/internal/core"
	"taopt/internal/harness"
	"taopt/internal/obs"
	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/trace/bin"
)

// ReplayWireLog re-drives the run recorded in rd, streaming its records,
// and returns its export — byte-identical to the live run's — plus the
// re-derived coordinator decision log (empty for baseline settings). The
// telemetry block is never emitted: the metrics registry samples live
// harness state the log does not replay, so a telemetry-enabled run replays
// to its telemetry-free export. Subspaces and screens come from the
// replayed coordinator and trace book, not from the recorded summaries.
func ReplayWireLog(rd io.Reader) (*Run, *obs.Log, error) {
	log, err := wire.OpenLog(rd)
	if err != nil {
		return nil, nil, err
	}
	if log.Config.CoreOverride {
		return nil, nil, fmt.Errorf("export: replay: run used a caller-supplied core.Config, which wire logs do not serialise")
	}
	b, err := newRunBuilder(log.Header())
	if err != nil {
		return nil, nil, err
	}
	e := &wireReplay{
		log:       log,
		run:       b,
		book:      trace.NewBook(),
		decisions: &obs.Log{},
	}
	switch log.Header().Setting {
	case "taopt-duration":
		e.buildCoordinator(core.DurationConstrained)
	case "taopt-resource":
		e.buildCoordinator(core.ResourceConstrained)
	}
	if e.coord != nil {
		e.coord.Start()
	}
	e.drive()
	if e.err != nil {
		return nil, nil, e.err
	}
	out, err := b.finish()
	if err != nil {
		return nil, nil, err
	}
	if err := e.reconcile(out); err != nil {
		return nil, nil, err
	}
	out.Telemetry = nil
	out.Subspaces = nil
	if e.coord != nil {
		for _, sub := range e.coord.Subspaces() {
			out.Subspaces = append(out.Subspaces, subspaceOf(harness.SubspaceRecord(sub)))
		}
	}
	out.Screens = nil
	for _, s := range harness.ScreenRecords(e.book) {
		out.Screens = append(out.Screens, screenOf(s))
	}
	return out, e.decisions, nil
}

// wireReplay re-drives one recorded run. It implements core.Env and
// bus.Sender against the record cursor: where the live coordinator talked
// to the harness and the transport, the replayed one talks to the log.
type wireReplay struct {
	log *wire.LogReader
	run *runBuilder
	pos int
	now sim.Duration

	// active mirrors the farm's active-allocation set. Instance IDs are
	// allocated monotonically and device.Farm.Active sorts by ID, so a
	// sorted ID slice reproduces ActiveInstances exactly.
	active []int

	book      *trace.Book
	coord     *core.Coordinator
	decisions *obs.Log

	leaseOrder []int
	end        *bin.Transport
	grounds    int
	delivered  int

	err error
}

// senderFunc adapts the engine's record-matching send to bus.Sender.
type senderFunc func(bus.Command) bus.Reply

func (f senderFunc) Send(cmd bus.Command) bus.Reply { return f(cmd) }

func (e *wireReplay) buildCoordinator(mode core.Mode) {
	cfg := core.DefaultConfig(mode)
	cfg.Obs = e.decisions
	e.coord = core.NewCoordinator(cfg, e, senderFunc(e.send), e.book)
}

func (e *wireReplay) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("export: replay: record %d: %s", e.pos, fmt.Sprintf(format, args...))
	}
}

// diverged is the reply a send gets once the replay has failed.
func diverged() bus.Reply { return bus.Reply{Err: fmt.Errorf("export: replay diverged")} }

// next pulls the next record. The recorded telemetry (decisions, metrics)
// is skipped wherever it sits: the replay re-derives the decision log and
// omits the telemetry block.
func (e *wireReplay) next() (bin.Record, bool) {
	for e.err == nil {
		rec, err := e.log.Next()
		if err == io.EOF {
			return bin.Record{}, false
		}
		if err != nil {
			e.fail("%v", err)
			return bin.Record{}, false
		}
		e.pos++
		if rec.Kind == bin.KindDecision || rec.Kind == bin.KindMetric {
			continue
		}
		if rec.Kind.Protocol() {
			e.now = sim.Duration(rec.AtNS)
		}
		return rec, true
	}
	return bin.Record{}, false
}

// --- core.Env ------------------------------------------------------------

func (e *wireReplay) Now() sim.Duration { return e.now }

func (e *wireReplay) MaxInstances() int { return e.log.Config.MaxDevices }

func (e *wireReplay) ActiveInstances() []int {
	return append([]int(nil), e.active...)
}

func (e *wireReplay) Allocate() (int, error) {
	rep := e.send(bus.Command{Kind: bus.Allocate})
	return rep.Instance, rep.Err
}

func (e *wireReplay) Deallocate(id int) error {
	return e.send(bus.Command{Kind: bus.Deallocate, Instance: id}).Err
}

// --- record consumption --------------------------------------------------

// send matches one coordinator-originated command against the next recorded
// exchange and returns the recorded reply. The live run's decision sequence
// is deterministic, so the replayed coordinator must ask for exactly what
// the log carries next — anything else is divergence.
func (e *wireReplay) send(cmd bus.Command) bus.Reply {
	rec, ok := e.next()
	if !ok {
		e.fail("coordinator sent %s but the log has no records left", cmd.Kind)
		return diverged()
	}
	if rec.Kind != bin.KindCommand {
		e.fail("coordinator sent %s but the log carries a %v record", cmd.Kind, rec.Kind)
		return diverged()
	}
	if got := wire.CommandOf(rec.Cmd); got != cmd {
		e.fail("coordinator sent %+v but the log recorded %+v", cmd, got)
		return diverged()
	}
	return e.consumeExchange(cmd)
}

// consumeExchange reads the effect records of one in-flight command (screen
// definitions, instance leases and their launch events) up to its reply,
// then applies the exchange to the mirrored farm state.
func (e *wireReplay) consumeExchange(cmd bus.Command) bus.Reply {
	for {
		rec, ok := e.next()
		if !ok {
			e.fail("exchange for %s has no reply", cmd.Kind)
			return diverged()
		}
		//lint:allow exhaustive "only screen definitions, leases, launch events and replies are legal inside an exchange; the default fails the replay as divergence"
		switch rec.Kind {
		case bin.KindScreenDef:
			e.observe(rec.Def)
		case bin.KindLease:
			e.leaseOrder = append(e.leaseOrder, rec.Lease)
		case bin.KindEvent:
			e.ground(&rec)
		case bin.KindReply:
			rep := wire.ReplyOf(rec.Reply)
			e.apply(cmd, rep)
			return rep
		default:
			e.fail("unexpected %v record inside a %s exchange", rec.Kind, cmd.Kind)
			return diverged()
		}
	}
}

// apply mirrors an exchange's effect on the farm's active set.
func (e *wireReplay) apply(cmd bus.Command, rep bus.Reply) {
	switch cmd.Kind {
	case bus.Allocate:
		if rep.Err == nil {
			e.addActive(rep.Instance)
		}
	case bus.Deallocate:
		if rep.Err == nil {
			e.removeActive(cmd.Instance)
		}
	case bus.BlockWidget, bus.BlockMember, bus.Kill, bus.Hang:
		// Blocks steer tools and fates arrive as fate records; neither
		// changes the mirrored active set here.
	}
}

func (e *wireReplay) addActive(id int) {
	i := sort.SearchInts(e.active, id)
	if i < len(e.active) && e.active[i] == id {
		return
	}
	e.active = append(e.active, 0)
	copy(e.active[i+1:], e.active[i:])
	e.active[i] = id
}

func (e *wireReplay) removeActive(id int) {
	i := sort.SearchInts(e.active, id)
	if i < len(e.active) && e.active[i] == id {
		e.active = append(e.active[:i], e.active[i+1:]...)
	}
}

func (e *wireReplay) observe(def bin.ScreenDef) {
	if sig := e.book.Observe(def.Screen); uint64(sig) != def.Sig {
		e.fail("screen definition hashes to %v, recorded as %v (codec or abstraction drift)", sig, def.Sig)
	}
}

// ground folds one ground event (launch events included) into the export.
func (e *wireReplay) ground(rec *bin.Record) {
	e.grounds++
	e.add(rec)
}

// add folds one shared record into the export being rebuilt.
func (e *wireReplay) add(rec *bin.Record) {
	if err := e.run.add(rec); err != nil {
		e.fail("%v", err)
	}
}

// drive consumes the top-level record stream: ground events and the
// end-of-run summaries rebuild the export, deliveries feed the coordinator,
// runner-originated exchanges and fate injections update the mirrored farm
// state.
func (e *wireReplay) drive() {
	for {
		rec, ok := e.next()
		if !ok {
			return
		}
		switch rec.Kind {
		case bin.KindScreenDef:
			e.observe(rec.Def)
		case bin.KindEvent:
			e.ground(&rec)
		case bin.KindDelivered:
			e.delivered++
			if e.coord != nil {
				e.coord.OnTransition(rec.Event)
			}
		case bin.KindCommand:
			// A runner-originated exchange: a baseline strategy's allocation,
			// an end-of-run deallocation, or a guard-rejected request.
			e.consumeExchange(wire.CommandOf(rec.Cmd))
		case bin.KindFate:
			// An injected Kill removes the instance from the farm; a Hang
			// leaves it allocated (and billed) in place.
			if c := wire.CommandOf(rec.Cmd); c.Kind == bus.Kill {
				e.removeActive(c.Instance)
			}
		case bin.KindLease:
			e.leaseOrder = append(e.leaseOrder, rec.Lease)
		case bin.KindTick:
			if e.coord != nil {
				e.coord.Tick(e.now)
			}
		case bin.KindRunEnd:
			e.end = rec.Transport
		case bin.KindSample, bin.KindDecision, bin.KindInstance, bin.KindSubspace,
			bin.KindScreen, bin.KindTransport, bin.KindMetric, bin.KindEnd:
			e.add(&rec)
		case bin.KindHeader, bin.KindStrDef, bin.KindSigDef, bin.KindRunConfig, bin.KindReply:
			// The header and config are consumed before drive starts and
			// replies inside their exchange; any of them here means the log
			// and this replayer have diverged.
			e.fail("%v record outside its place (replay diverged)", rec.Kind)
		}
	}
}

// reconcile cross-checks the re-driven state against the recorded run
// totals: the record counts must reconcile with the transport accounting,
// the replayed coordinator must land in the recorded end state, and every
// lease must have its end-of-run summary.
func (e *wireReplay) reconcile(out *Run) error {
	if e.end == nil {
		return fmt.Errorf("export: replay: log carries no run-end record (truncated recording)")
	}
	// Every ground event after a launch is a publish the transport counted
	// — except delayed events the run ended before re-delivering, which the
	// recorder saw at emission but the accounting never credits. Allow
	// exactly that slack.
	published := e.grounds - len(e.leaseOrder)
	if lost := published - e.end.Events; lost < 0 || lost > e.end.Delayed {
		return fmt.Errorf("export: replay: %d ground events after launch but the run published %d (delayed %d)",
			published, e.end.Events, e.end.Delayed)
	}
	if e.delivered != e.end.Delivered {
		return fmt.Errorf("export: replay: %d delivery records but the run delivered %d", e.delivered, e.end.Delivered)
	}
	if e.coord != nil && e.coord.OrphanCount() != e.end.OrphansPending {
		return fmt.Errorf("export: replay: coordinator ends with %d pending orphans, run recorded %d", e.coord.OrphanCount(), e.end.OrphansPending)
	}
	if len(out.Instances) != len(e.leaseOrder) {
		return fmt.Errorf("export: replay: %d leases but %d end-of-run summaries", len(e.leaseOrder), len(out.Instances))
	}
	for i, id := range e.leaseOrder {
		if out.Instances[i].ID != id {
			return fmt.Errorf("export: replay: lease %d is instance %d but its summary names instance %d", i, id, out.Instances[i].ID)
		}
	}
	return nil
}

// Statically assert the engine satisfies the coordinator's environment seam.
var _ core.Env = (*wireReplay)(nil)
