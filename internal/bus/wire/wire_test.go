package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"taopt/internal/bus"
	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/trace/bin"
	"taopt/internal/ui"
)

func testScreen() *ui.Screen {
	root := &ui.Node{
		Class: "FrameLayout", ResourceID: "root", Enabled: true,
		Children: []*ui.Node{
			{Class: "Button", ResourceID: "buy", Text: "Buy", Enabled: true, Clickable: true},
			{Class: "TextView", Text: "hello"},
			{Class: "LinearLayout", Enabled: true, Children: []*ui.Node{
				{Class: "ImageView", ResourceID: "logo", Clickable: true},
			}},
		},
	}
	return &ui.Screen{Activity: "MainActivity", Root: root}
}

// allFrames is one frame of every kind, with every payload field exercised.
func allFrames() []Frame {
	ev := trace.Event{
		Instance: 3,
		At:       sim.Duration(42e9),
		Action:   trace.Action{Kind: trace.ActionTap, Widget: ui.WidgetPath("root/buy")},
		From:     ui.Signature(0x1122334455667788),
		To:       ui.Signature(7),
		Activity: "CartActivity",
		Crashed:  true,
		Enforced: true,
	}
	return []Frame{
		{Kind: FrameEvent, At: 2e9, Event: ev},
		{Kind: FrameCommand, At: 4e9, Cmd: bus.Command{Kind: bus.BlockWidget, Instance: 2, Screen: ev.From, Widget: ui.WidgetPath("root/buy")}},
		{Kind: FrameReply, At: 4e9, Reply: bus.Reply{Instance: 2}},
		{Kind: FrameReply, At: 5e9, Reply: bus.Reply{Err: bus.ErrNotBound}},
	}
}

// payload encodes f and strips its length prefix.
func payload(t *testing.T, f Frame) []byte {
	t.Helper()
	b, err := appendFrame(nil, f)
	if err != nil {
		t.Fatalf("%v: marshal: %v", f.Kind, err)
	}
	return b[4:]
}

// TestCodecRoundTrip marshals every frame kind and decodes it back, field
// for field.
func TestCodecRoundTrip(t *testing.T) {
	for _, f := range allFrames() {
		got, err := decodeFrame(payload(t, f))
		if err != nil {
			t.Fatalf("%v: decode: %v", f.Kind, err)
		}
		// Replies carry errors, which decode to transport-invariant values
		// rather than the original instances; compare their views separately.
		if f.Kind == FrameReply {
			if (got.Reply.Err == nil) != (f.Reply.Err == nil) {
				t.Fatalf("reply error presence changed: %v -> %v", f.Reply.Err, got.Reply.Err)
			}
			if f.Reply.Err != nil {
				if got.Reply.Err.Error() != f.Reply.Err.Error() {
					t.Fatalf("reply error message changed: %q -> %q", f.Reply.Err, got.Reply.Err)
				}
				if !errors.Is(got.Reply.Err, bus.ErrNotBound) {
					t.Fatalf("reply error lost its sentinel: %v", got.Reply.Err)
				}
			}
			continue
		}
		if !reflect.DeepEqual(got, f) {
			t.Fatalf("%v: round-trip changed the frame:\n got %+v\nwant %+v", f.Kind, got, f)
		}
	}
}

// TestCodecErrorClasses pins the sentinel classification across the wire:
// errors.Is must keep working on decoded replies for every retryable class.
func TestCodecErrorClasses(t *testing.T) {
	cases := []struct {
		err      error
		sentinel error
	}{
		{bus.ErrFarmBusy, bus.ErrFarmBusy},
		{bus.ErrTimeout, bus.ErrTimeout},
		{bus.ErrNotBound, bus.ErrNotBound},
		{errors.New("bus: unknown instance 9"), nil},
	}
	for _, c := range cases {
		got, err := decodeFrame(payload(t, Frame{Kind: FrameReply, Reply: bus.Reply{Err: c.err}}))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		// The recorded form maps back to the same error view.
		if rec := ReplyOf(replyRecord(bus.Reply{Err: c.err})); rec.Err.Error() != c.err.Error() ||
			(c.sentinel != nil && !errors.Is(rec.Err, c.sentinel)) {
			t.Fatalf("recorded reply %q lost its message or sentinel", c.err)
		}
		if got.Reply.Err.Error() != c.err.Error() {
			t.Fatalf("message changed: %q -> %q", c.err, got.Reply.Err)
		}
		if c.sentinel != nil && !errors.Is(got.Reply.Err, c.sentinel) {
			t.Fatalf("decoded %q lost sentinel %v", c.err, c.sentinel)
		}
		if bus.Retryable(c.err) != bus.Retryable(got.Reply.Err) {
			t.Fatalf("retryability of %q changed across the wire", c.err)
		}
	}
}

// TestCodecRejectsTrailingBytes guards frame framing: junk after a valid
// payload is corruption, not slack.
func TestCodecRejectsTrailingBytes(t *testing.T) {
	p := payload(t, Frame{Kind: FrameCommand, At: 1e9, Cmd: bus.Command{Kind: bus.Kill, Instance: 1}})
	if _, err := decodeFrame(append(p, 0xFF)); err == nil {
		t.Fatal("decodeFrame accepted trailing bytes")
	}
	if _, err := decodeFrame(p[:len(p)-1]); err == nil {
		t.Fatal("decodeFrame accepted a truncated payload")
	}
}

func TestPipe(t *testing.T) {
	a, b := Pipe()
	if _, err := b.Write([]byte("up!")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	n, err := a.Read(buf)
	if err != nil || string(buf[:n]) != "up!" {
		t.Fatalf("read %q, %v", buf[:n], err)
	}
	// Empty pipe reports no data, not EOF: the simulation is single-threaded,
	// so "nothing buffered" is a state, not a stream end.
	if _, err := a.Read(buf); !errors.Is(err, errNoData) {
		t.Fatalf("empty read: %v", err)
	}
	// The duplex pair is symmetric.
	if _, err := a.Write([]byte("down")); err != nil {
		t.Fatal(err)
	}
	if n, err := b.Read(buf); err != nil || string(buf[:n]) != "down" {
		t.Fatalf("read %q, %v", buf[:n], err)
	}
	// Close poisons both directions and discards buffered data.
	if _, err := b.Write([]byte("lost")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	if _, err := a.Read(buf); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("read after close: %v", err)
	}
	if _, err := b.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("write after peer close: %v", err)
	}
}

type echoExec struct{ next int }

func (e *echoExec) Exec(cmd bus.Command) bus.Reply {
	switch cmd.Kind {
	case bus.Allocate:
		e.next++
		return bus.Reply{Instance: e.next}
	default:
		return bus.Reply{Instance: cmd.Instance}
	}
}

// TestTransportCarriesProtocol drives the full request/reply and publish
// paths through the framing and checks both accounting views.
func TestTransportCarriesProtocol(t *testing.T) {
	var now sim.Duration
	tr := New(func() sim.Duration { return now })
	tr.Bind(&echoExec{})

	var seen []trace.Event
	tr.Subscribe(func(ev trace.Event) { seen = append(seen, ev) })

	rep := tr.Send(bus.Command{Kind: bus.Allocate})
	if rep.Err != nil || rep.Instance != 1 {
		t.Fatalf("allocate over wire: %+v", rep)
	}
	ev := trace.Event{Instance: 1, To: ui.Signature(5), Activity: "A"}
	tr.Publish(ev)
	if len(seen) != 1 || seen[0] != ev {
		t.Fatalf("published event not delivered: %+v", seen)
	}

	st := tr.Stats()
	if st.Commands != 1 || st.CommandFailures != 0 || st.Published != 1 || st.Delivered != 1 {
		t.Fatalf("bus stats: %+v", st)
	}
	w := tr.Wire()
	if w.FramesDown != 1 || w.FramesUp != 2 || w.BytesUp == 0 || w.BytesDown == 0 {
		t.Fatalf("wire stats: %+v", w)
	}
	if tr.Err() != nil {
		t.Fatalf("transport error: %v", tr.Err())
	}
}

// TestTransportUnboundCommands: a command with no executor behind the wire
// still gets a framed reply carrying bus.ErrNotBound.
func TestTransportUnboundCommands(t *testing.T) {
	tr := New(func() sim.Duration { return 0 })
	rep := tr.Send(bus.Command{Kind: bus.Allocate})
	if !errors.Is(rep.Err, bus.ErrNotBound) {
		t.Fatalf("unbound send: %v", rep.Err)
	}
	st := tr.Stats()
	if st.Commands != 1 || st.CommandFailures != 1 {
		t.Fatalf("unbound stats: %+v", st)
	}
}

// TestTransportSever: once the link is lost, publishes degrade to silence
// and commands time out with the retryable bus.ErrTimeout sentinel —
// graceful degradation, never a hang or a panic.
func TestTransportSever(t *testing.T) {
	var now sim.Duration
	tr := New(func() sim.Duration { return now })
	tr.Bind(&echoExec{})
	tr.Sever()

	tr.Publish(trace.Event{Instance: 1})
	now += CommandTimeout
	rep := tr.Send(bus.Command{Kind: bus.Deallocate, Instance: 1})
	if rep.Err == nil || !errors.Is(rep.Err, bus.ErrTimeout) {
		t.Fatalf("severed send: %v", rep.Err)
	}
	if !bus.Retryable(rep.Err) {
		t.Fatal("severed-link timeout must be retryable")
	}
	st, w := tr.Stats(), tr.Wire()
	if st.Delivered != 0 || st.CommandFailures != 1 || w.Timeouts != 1 {
		t.Fatalf("severed stats: %+v wire %+v", st, w)
	}
}

// TestRecorderFrameOrdering replays the canonical exchange shapes through
// the two recording decorators, plus the shared records the harness writes
// through the stream, and pins the resulting record sequence.
func TestRecorderFrameOrdering(t *testing.T) {
	var now sim.Duration
	var buf bytes.Buffer
	book := trace.NewBook()
	sig := book.Observe(testScreen())

	cfg := bin.RunConfig{Instances: 5, MaxDevices: 4, DurationNS: 60e9, MachineBudgetNS: 300e9, SampleEveryNS: 10e9}
	rec := NewRecorder(&buf, func() sim.Duration { return now }, book, bin.Header{App: "x", Tool: "monkey", Setting: "baseline"}, cfg)
	base := bus.NewInline()
	base.Bind(&echoExec{})
	port := rec.Outer(rec.Inner(base))

	// A coordinator-originated command referencing a screen: definition,
	// command, reply.
	now = 1e9
	cmd := bus.Command{Kind: bus.BlockWidget, Instance: 1, Screen: sig, Widget: "root/buy"}
	port.Send(cmd)
	// A ground event as the harness writes it, then its post-fault delivery.
	ev := trace.Event{Instance: 1, At: now, From: sig, To: sig, Activity: "MainActivity"}
	rec.Define(ev.From, ev.To)
	rec.Stream().Event(ev)
	port.Publish(ev)
	// A fate injection entering below the coordinator's view.
	rec.Inner(base).Send(bus.Command{Kind: bus.Kill, Instance: 1})
	rec.Lease(2)
	// Run-end bookkeeping.
	now = 2e9
	rec.TickMark()
	rec.RunEnd(bus.Stats{Published: 1, Delivered: 1, Commands: 2}, 1, 0)
	rec.Stream().End(bin.End{WallNS: int64(now)})
	if err := rec.Stream().Close(); err != nil {
		t.Fatalf("recorder error: %v", err)
	}

	log, err := ReadLog(&buf)
	if err != nil {
		t.Fatalf("reading log back: %v", err)
	}
	if log.Header.App != "x" || log.Header.Tool != "monkey" || !log.Header.Protocol {
		t.Fatalf("header not lifted from the stream: %+v", log.Header)
	}
	if log.Config != cfg {
		t.Fatalf("config = %+v, want %+v", log.Config, cfg)
	}
	want := []bin.Kind{bin.KindScreenDef, bin.KindCommand, bin.KindReply, bin.KindEvent, bin.KindDelivered,
		bin.KindFate, bin.KindLease, bin.KindTick, bin.KindRunEnd, bin.KindEnd}
	var got []bin.Kind
	for _, r := range log.Records {
		got = append(got, r.Kind)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("record sequence:\n got %v\nwant %v", got, want)
	}
	def := log.Records[0].Def
	if ui.Signature(def.Sig) != sig {
		t.Fatalf("screen defined as %v, want %v", def.Sig, sig)
	}
	// The decoded screen hashes back to its recorded signature.
	if re := trace.NewBook().Observe(def.Screen); re != sig {
		t.Fatalf("decoded screen re-hashes to %v, want %v", re, sig)
	}
	if c := CommandOf(log.Records[1].Cmd); c != cmd || log.Records[1].AtNS != 1e9 {
		t.Fatalf("command = %+v at %d, want %+v at 1s", c, log.Records[1].AtNS, cmd)
	}
	if d := log.Records[4].Event; d != ev {
		t.Fatalf("delivered = %+v, want %+v", d, ev)
	}
	if f := CommandOf(log.Records[5].Cmd); f.Kind != bus.Kill || f.Instance != 1 {
		t.Fatalf("fate = %+v", f)
	}
	if log.Records[6].Lease != 2 || log.Records[7].AtNS != 2e9 {
		t.Fatalf("lease %d, tick at %d", log.Records[6].Lease, log.Records[7].AtNS)
	}
	if end := log.Records[8].Transport; end.Events != 1 || end.FailedInstances != 1 || end.Mix[bus.BlockWidget] != 0 {
		t.Fatalf("run-end accounting = %+v", end)
	}
}

// TestReadLogRejectsGarbage: wrong magic, wrong version and a binary trace
// without protocol records are loud errors.
func TestReadLogRejectsGarbage(t *testing.T) {
	if _, err := ReadLog(bytes.NewReader([]byte("NOTAWLOG"))); err == nil {
		t.Fatal("accepted bad magic")
	}
	var buf bytes.Buffer
	rec := NewRecorder(&buf, func() sim.Duration { return 0 }, trace.NewBook(), bin.Header{}, bin.RunConfig{})
	rec.Stream().End(bin.End{})
	if err := rec.Stream().Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadLog(bytes.NewReader(raw)); err != nil {
		t.Fatalf("rejected a valid empty log: %v", err)
	}
	raw[len(bin.Magic)] = 99 // corrupt the version byte
	if _, err := ReadLog(bytes.NewReader(raw)); err == nil {
		t.Fatal("accepted unknown version")
	}
	buf.Reset()
	plain := bin.NewWriter(&buf, bin.Header{})
	plain.End(bin.End{})
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLog(&buf); err == nil {
		t.Fatal("accepted a binary trace without the protocol flag")
	}
}
