package wire

import (
	"io"

	"taopt/internal/bus"
	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/trace/bin"
	"taopt/internal/ui"
)

// Recorder captures a run's full bidirectional message log — every
// post-fault delivery, every Command/Reply exchange, plus the boundary
// effects replay needs (instance leases, screen definitions, ticks, the
// transport's final accounting) — as the protocol records of a wire log.
// The run's shared records (ground events, samples, decisions and the
// end-of-run summaries) reach the same stream through Stream, written by
// the harness exactly as into a plain binary trace.
//
// It decorates the transport stack at two seams:
//
//	port := rec.Outer( WithFaults( rec.Inner(base), plan, sched ) )
//
// Outer sees commands with their replies as the endpoints speak them;
// Inner sees what survived the fault plan (delivered events, injected
// fates). Recording both sides makes the log self-contained:
// export.ReplayWireLog re-drives the coordinator from the delivered events
// and rebuilds the export from the ground events, byte-for-byte, with no
// farm, tools or fault plan present.
type Recorder struct {
	s    *bin.Writer
	now  func() sim.Duration
	book *trace.Book
	seen map[ui.Signature]bool
	// depth distinguishes coordinator-originated sends traversing the stack
	// (recorded once, by Outer) from fate injections entering below the
	// coordinator (recorded by Inner as fates).
	depth int
}

// NewRecorder starts a wire log on w: a binary-trace stream whose header
// sets the protocol flag, opened by the run config. book resolves screen
// signatures to exemplar hierarchies for the screen definitions; now
// supplies record timestamps.
func NewRecorder(w io.Writer, now func() sim.Duration, book *trace.Book, hdr bin.Header, cfg bin.RunConfig) *Recorder {
	hdr.Protocol = true
	s := bin.NewWriter(w, hdr)
	s.RunConfig(cfg)
	return &Recorder{s: s, now: now, book: book, seen: make(map[ui.Signature]bool)}
}

// Stream returns the wire log's stream. The caller writes the shared
// records through it and closes it; Close reports the first write error —
// a truncated wire log must fail loudly, not replay wrongly.
func (r *Recorder) Stream() *bin.Writer { return r.s }

func (r *Recorder) at() int64 { return int64(r.now()) }

// Define writes a screen definition for each not-yet-defined signature, so
// every record that references a signature is preceded by its definition.
// Screens are defined in first-reference order, which (because the driver
// publishes immediately after every first-sight Observe) equals the trace
// book's insertion order — replay rebuilds an identical book.
func (r *Recorder) Define(sigs ...ui.Signature) {
	for _, sig := range sigs {
		if sig == 0 || r.seen[sig] {
			continue
		}
		screen := r.book.Lookup(sig)
		if screen == nil {
			// Not in the book yet (e.g. a zero-valued From); the record's
			// consumer treats undefined signatures as opaque.
			continue
		}
		r.seen[sig] = true
		r.s.ScreenDef(r.at(), uint64(sig), screen)
	}
}

// Lease records one instance boot. The driver emits the launch event
// before any listener subscribes, so it never crosses the transport; the
// caller writes it as the shared event right after.
func (r *Recorder) Lease(id int) { r.s.Lease(r.at(), id) }

// Local records a Command/Reply exchange the runner resolved without
// touching the transport (end-of-run allocation guards). Replay matches
// these records exactly like transported exchanges.
func (r *Recorder) Local(cmd bus.Command, rep bus.Reply) {
	r.s.Command(r.at(), commandRecord(cmd))
	r.s.Reply(r.at(), replyRecord(rep))
}

// TickMark records one strategy tick.
func (r *Recorder) TickMark() { r.s.Tick(r.at()) }

// RunEnd records the transport's final accounting, the failed leases and
// the orphans still pending; the caller writes the end-of-run summaries
// after it.
func (r *Recorder) RunEnd(st bus.Stats, failedInstances, orphansPending int) {
	r.s.RunEnd(r.at(), Accounting(st, failedInstances, orphansPending))
}

// Outer decorates the coordinator-facing transport: it records every
// Command/Reply exchange.
func (r *Recorder) Outer(t bus.Transport) bus.Transport { return &outerRec{rec: r, inner: t} }

// Inner decorates the transport below the fault plan: it records what was
// actually delivered (post-drop/delay) and the plan's fate injections.
func (r *Recorder) Inner(t bus.Transport) bus.Transport { return &innerRec{rec: r, inner: t} }

type outerRec struct {
	rec   *Recorder
	inner bus.Transport
}

func (t *outerRec) Publish(ev trace.Event)            { t.inner.Publish(ev) }
func (t *outerRec) Subscribe(fn func(ev trace.Event)) { t.inner.Subscribe(fn) }
func (t *outerRec) Bind(ex bus.Executor)              { t.inner.Bind(ex) }
func (t *outerRec) Stats() bus.Stats                  { return t.inner.Stats() }

func (t *outerRec) Send(cmd bus.Command) bus.Reply {
	t.rec.Define(cmd.Screen)
	t.rec.s.Command(t.rec.at(), commandRecord(cmd))
	t.rec.depth++
	rep := t.inner.Send(cmd)
	t.rec.depth--
	// Effect records written during the exchange (screen definitions,
	// leases, launch events) sit between the command and its reply; replay
	// consumes them in place.
	t.rec.s.Reply(t.rec.at(), replyRecord(rep))
	return rep
}

type innerRec struct {
	rec   *Recorder
	inner bus.Transport
}

func (t *innerRec) Publish(ev trace.Event) {
	t.rec.Define(ev.From, ev.To)
	t.rec.s.Delivered(t.rec.at(), ev)
	t.inner.Publish(ev)
}

func (t *innerRec) Subscribe(fn func(ev trace.Event)) { t.inner.Subscribe(fn) }
func (t *innerRec) Bind(ex bus.Executor)              { t.inner.Bind(ex) }
func (t *innerRec) Stats() bus.Stats                  { return t.inner.Stats() }

func (t *innerRec) Send(cmd bus.Command) bus.Reply {
	if t.rec.depth > 0 {
		// A coordinator-originated command traversing the stack; Outer
		// already recorded the exchange.
		return t.inner.Send(cmd)
	}
	// A fate injection from the fault plan, entering below the coordinator.
	t.rec.s.Fate(t.rec.at(), commandRecord(cmd))
	return t.inner.Send(cmd)
}
