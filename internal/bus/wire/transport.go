package wire

import (
	"encoding/binary"
	"fmt"

	"taopt/internal/bus"
	"taopt/internal/sim"
	"taopt/internal/trace"
)

// CommandTimeout is the per-command reply deadline on the virtual clock.
// Over today's synchronous pipe a reply arrives within the same virtual
// instant or never, so the timeout never partially elapses — but the sender
// contract ("a command without a reply fails with bus.ErrTimeout after
// CommandTimeout") is what a future TCP-backed farm must honour, and the
// error text quotes it so operators see the budget that was exceeded.
const CommandTimeout = 30 * sim.Duration(1e9)

// Stats counts the wire layer's frame traffic: protocol-level accounting
// that is deliberately kept out of the run export (exports must stay
// byte-identical across transports; frame counts are transport-specific).
type Stats struct {
	// FramesUp / BytesUp count instance→coordinator traffic (events,
	// replies); FramesDown / BytesDown count coordinator→instance traffic
	// (commands).
	FramesUp   int
	FramesDown int
	BytesUp    int
	BytesDown  int
	// Timeouts counts commands whose reply never arrived (severed pipe or
	// swallowed frame) and were failed with bus.ErrTimeout.
	Timeouts int
}

// Transport is the message-framed bus.Transport: every trace event and every
// Command/Reply pair crosses an in-process duplex pipe as length-prefixed
// binary frames. The coordination protocol is thereby forced through a real
// serialisation boundary — anything that cannot be framed cannot be
// coordinated on, which is the production-farm constraint the Inline
// transport lets callers forget.
//
// Like every transport, it is single-threaded on the virtual clock: Publish
// and Send pump the pipe synchronously, so delivery order is deterministic
// and identical to Inline's.
type Transport struct {
	now func() sim.Duration

	// coord is the coordinator-side pipe end (reads events+replies, writes
	// commands); inst is the instance-side end (the mirror image).
	coord *Conn
	inst  *Conn

	subs    []func(trace.Event)
	ex      bus.Executor
	stats   bus.Stats
	wire    Stats
	pending []bus.Reply

	upBuf   []byte
	downBuf []byte
	// frame is the reused encode buffer; the pipe copies what it is given.
	frame []byte
	err   error
}

// New returns a wire transport over a fresh in-process pipe. now supplies
// virtual timestamps for the frames (sim.Scheduler.Now fits).
func New(now func() sim.Duration) *Transport {
	coord, inst := Pipe()
	return &Transport{now: now, coord: coord, inst: inst}
}

// Publish implements bus.Transport: the event is framed, written up the
// pipe, and delivered to subscribers when the coordinator side drains it.
//
//lint:hotpath
func (t *Transport) Publish(ev trace.Event) {
	t.stats.Published++
	t.write(t.inst, Frame{Kind: FrameEvent, At: t.now(), Event: ev}, &t.wire.FramesUp, &t.wire.BytesUp)
	t.pumpUp()
}

// Subscribe implements bus.Transport.
func (t *Transport) Subscribe(fn func(ev trace.Event)) { t.subs = append(t.subs, fn) }

// Bind implements bus.Transport.
func (t *Transport) Bind(ex bus.Executor) { t.ex = ex }

// Send implements bus.Transport: the command is framed down the pipe, the
// instance side executes it and frames the reply back up. A command whose
// reply does not arrive — the pipe was severed or a frame was swallowed —
// fails with bus.ErrTimeout rather than silence, so the coordinator can
// classify and retry.
func (t *Transport) Send(cmd bus.Command) bus.Reply {
	t.stats.Commands++
	if cmd.Kind >= 0 && int(cmd.Kind) < bus.NumCommandKinds {
		t.stats.ByKind[cmd.Kind]++
	}
	t.write(t.coord, Frame{Kind: FrameCommand, At: t.now(), Cmd: cmd}, &t.wire.FramesDown, &t.wire.BytesDown)
	t.pumpDown()
	t.pumpUp()
	rep, ok := t.takeReply()
	if !ok {
		t.stats.CommandFailures++
		t.wire.Timeouts++
		return bus.Reply{Instance: cmd.Instance,
			Err: fmt.Errorf("bus/wire: no reply to %s within %v: %w", cmd.Kind, CommandTimeout, bus.ErrTimeout)}
	}
	if rep.Err != nil {
		t.stats.CommandFailures++
	}
	return rep
}

// Stats implements bus.Transport.
func (t *Transport) Stats() bus.Stats { return t.stats }

// Wire returns the frame-level traffic counters.
func (t *Transport) Wire() Stats { return t.wire }

// Err returns the first protocol error (corrupt frame, unexpected kind)
// observed on either pipe end, or nil. A healthy run never sets it.
func (t *Transport) Err() error { return t.err }

// Sever closes both pipe ends, simulating loss of the farm connection:
// subsequent publishes are swallowed and subsequent commands time out.
func (t *Transport) Sever() {
	t.coord.Close()
	t.inst.Close()
}

// write frames f onto c, charging the given traffic counters. A write on a
// severed pipe is dropped silently — the loss surfaces as a missing reply
// (timeout) or an undelivered event, exactly like a dead network peer.
func (t *Transport) write(c *Conn, f Frame, frames, bytes *int) {
	buf, err := appendFrame(t.frame[:0], f)
	t.frame = buf
	if err != nil {
		t.fail(err)
		return
	}
	if _, err := c.Write(buf); err != nil {
		return
	}
	*frames++
	*bytes += len(buf)
}

// pumpUp drains the coordinator-side end: events go to subscribers in
// arrival order, replies queue for the Send in progress.
func (t *Transport) pumpUp() {
	for _, f := range t.drain(t.coord, &t.upBuf) {
		//lint:allow exhaustive "only event and reply frames are legal on the up pipe; every other kind is protocol corruption the default fails loudly on"
		switch f.Kind {
		case FrameEvent:
			t.stats.Delivered++
			for _, fn := range t.subs {
				fn(f.Event)
			}
		case FrameReply:
			t.pending = append(t.pending, f.Reply)
		default:
			t.fail(fmt.Errorf("wire: unexpected %v frame on the up pipe", f.Kind))
		}
	}
}

// pumpDown drains the instance-side end: each command is executed (or
// refused when no executor is bound) and its reply framed back up.
func (t *Transport) pumpDown() {
	for _, f := range t.drain(t.inst, &t.downBuf) {
		if f.Kind != FrameCommand {
			t.fail(fmt.Errorf("wire: unexpected %v frame on the down pipe", f.Kind))
			continue
		}
		rep := bus.Reply{Err: bus.ErrNotBound}
		if t.ex != nil {
			rep = t.ex.Exec(f.Cmd)
		}
		t.write(t.inst, Frame{Kind: FrameReply, At: t.now(), Reply: rep}, &t.wire.FramesUp, &t.wire.BytesUp)
	}
}

func (t *Transport) takeReply() (bus.Reply, bool) {
	if len(t.pending) == 0 {
		return bus.Reply{}, false
	}
	rep := t.pending[0]
	t.pending = t.pending[1:]
	return rep, true
}

func (t *Transport) fail(err error) {
	if t.err == nil {
		t.err = err
	}
}

// drain reads every buffered byte from c into buf and decodes the complete
// frames, leaving any partial tail for the next pump.
func (t *Transport) drain(c *Conn, buf *[]byte) []Frame {
	var scratch [4096]byte
	for {
		n, err := c.Read(scratch[:])
		if n > 0 {
			*buf = append(*buf, scratch[:n]...)
		}
		if err != nil || n == 0 {
			break
		}
	}
	var frames []Frame
	for len(*buf) >= 4 {
		n := binary.LittleEndian.Uint32(*buf)
		if n > maxFrameSize {
			t.fail(fmt.Errorf("wire: frame claims %d bytes (corrupt stream)", n))
			*buf = nil
			break
		}
		if len(*buf) < 4+int(n) {
			break
		}
		f, err := decodeFrame((*buf)[4 : 4+int(n)])
		*buf = (*buf)[4+int(n):]
		if err != nil {
			t.fail(err)
			break
		}
		frames = append(frames, f)
	}
	return frames
}
