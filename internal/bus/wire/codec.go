// Package wire carries the coordination protocol of internal/bus as framed
// bytes: every trace.Event travelling up and every Command/Reply pair
// travelling down is encoded with a length-prefixed binary codec and moved
// over an in-process duplex pipe. Today the pipe is a pair of synchronous
// byte queues; the framing is byte-stream-shaped so a TCP connection drops in
// later without touching the protocol.
//
// A Recorder captures a run's full bidirectional message log — the wire
// log — which export.ReplayWireLog re-drives byte-for-byte: the message
// log, not the process that produced it, is the reproducibility contract. A
// wire log is a binary trace (internal/trace/bin) whose header sets the
// protocol flag; this package maps bus.Command, bus.Reply and the reply
// error classes to and from the raw fields of its protocol records.
//
// Determinism: the codec has no maps, no wall clock and no randomness; the
// bytes of a frame are a pure function of its fields, so two identical runs
// produce byte-identical wire logs and the CI can diff them.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"taopt/internal/bus"
	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/trace/bin"
	"taopt/internal/ui"
)

// FrameKind tags one frame of the live protocol.
type FrameKind byte

// Frame kinds.
const (
	// FrameEvent is one trace event travelling up to the coordinator.
	FrameEvent FrameKind = iota + 1
	// FrameCommand is one coordinator→executor command.
	FrameCommand
	// FrameReply is the executor's answer to the preceding FrameCommand.
	FrameReply
)

func (k FrameKind) String() string {
	switch k {
	case FrameEvent:
		return "event"
	case FrameCommand:
		return "command"
	case FrameReply:
		return "reply"
	default:
		return fmt.Sprintf("kind(%d)", byte(k))
	}
}

// maxFrameSize bounds one frame's payload; anything larger marks a corrupt
// stream rather than a legitimate frame.
const maxFrameSize = 1 << 26

// Frame is one decoded protocol frame. Kind selects which payload field is
// meaningful; At is the virtual-clock instant the frame was sent.
type Frame struct {
	Kind FrameKind
	At   sim.Duration

	Event trace.Event // FrameEvent
	Cmd   bus.Command // FrameCommand
	Reply bus.Reply   // FrameReply
}

// --- reply error classes --------------------------------------------------

// Reply errors cross the wire as a sentinel class plus the full message, so
// the coordinator's two error probes — errors.Is against the retry sentinels
// and err.Error() for the decision log — behave identically whether a reply
// came through Inline, the wire, or a replayed log.
const (
	errClassNone byte = iota
	errClassBusy
	errClassTimeout
	errClassNotBound
	errClassOther
)

func errClassOf(err error) byte {
	switch {
	case err == nil:
		return errClassNone
	case errors.Is(err, bus.ErrFarmBusy):
		return errClassBusy
	case errors.Is(err, bus.ErrTimeout):
		return errClassTimeout
	case errors.Is(err, bus.ErrNotBound):
		return errClassNotBound
	default:
		return errClassOther
	}
}

// wireError is a decoded reply error: the original message with the
// sentinel chain restored.
type wireError struct {
	msg      string
	sentinel error
}

func (e *wireError) Error() string { return e.msg }
func (e *wireError) Unwrap() error { return e.sentinel }

func decodeErr(class byte, msg string) error {
	switch class {
	case errClassNone:
		return nil
	case errClassBusy:
		return &wireError{msg: msg, sentinel: bus.ErrFarmBusy}
	case errClassTimeout:
		return &wireError{msg: msg, sentinel: bus.ErrTimeout}
	case errClassNotBound:
		return &wireError{msg: msg, sentinel: bus.ErrNotBound}
	default:
		return errors.New(msg)
	}
}

// --- bus ↔ recorded-run mapping -------------------------------------------

// commandRecord maps a bus command to the raw fields of a protocol record.
func commandRecord(c bus.Command) bin.Command {
	return bin.Command{Kind: byte(c.Kind), Instance: c.Instance, Screen: uint64(c.Screen), Widget: string(c.Widget)}
}

// CommandOf maps a recorded command back to the bus command.
func CommandOf(c bin.Command) bus.Command {
	return bus.Command{Kind: bus.CommandKind(c.Kind), Instance: c.Instance, Screen: ui.Signature(c.Screen), Widget: ui.WidgetPath(c.Widget)}
}

// replyRecord maps a bus reply to its error class and message.
func replyRecord(r bus.Reply) bin.Reply {
	rec := bin.Reply{Instance: r.Instance, Class: errClassOf(r.Err)}
	if r.Err != nil {
		rec.Msg = r.Err.Error()
	}
	return rec
}

// ReplyOf maps a recorded reply back to a bus reply whose error keeps its
// message and its retry sentinel.
func ReplyOf(r bin.Reply) bus.Reply {
	return bus.Reply{Instance: r.Instance, Err: decodeErr(r.Class, r.Msg)}
}

// Accounting maps a run's transport counters, failed leases and pending
// orphans to the recorded transport block, with the per-kind command mix.
func Accounting(st bus.Stats, failedInstances, orphansPending int) bin.Transport {
	t := bin.Transport{
		Events:          st.Published,
		Delivered:       st.Delivered,
		Commands:        st.Commands,
		CommandFailures: st.CommandFailures,
		Dropped:         st.Dropped,
		Delayed:         st.Delayed,
		Deaths:          st.Deaths,
		Hangs:           st.Hangs,
		AllocFailures:   st.AllocFailures,
		LostCommands:    st.LostCommands,
		FailedInstances: failedInstances,
		OrphansPending:  orphansPending,
		HasMix:          true,
	}
	copy(t.Mix[:], st.ByKind[:])
	return t
}

// --- frame codec ----------------------------------------------------------

// Frames are self-contained — raw strings and signatures, no intern table —
// because a severed pipe must not corrupt the frames after it.

// appendFrame appends the length-prefixed encoding of f (kind byte,
// timestamp, body) to dst.
func appendFrame(dst []byte, f Frame) ([]byte, error) {
	e := bin.Enc{B: append(dst, 0, 0, 0, 0)}
	e.U8(byte(f.Kind))
	e.Varint(int64(f.At))
	switch f.Kind {
	case FrameEvent:
		ev := f.Event
		e.Varint(int64(ev.Instance))
		e.Varint(int64(ev.At))
		e.U8(byte(ev.Action.Kind))
		e.Str(string(ev.Action.Widget))
		e.U64(uint64(ev.From))
		e.U64(uint64(ev.To))
		e.Str(ev.Activity)
		var flags byte
		if ev.Crashed {
			flags |= 1
		}
		if ev.Enforced {
			flags |= 2
		}
		e.U8(flags)
	case FrameCommand:
		e.U8(byte(f.Cmd.Kind))
		e.Varint(int64(f.Cmd.Instance))
		e.U64(uint64(f.Cmd.Screen))
		e.Str(string(f.Cmd.Widget))
	case FrameReply:
		rec := replyRecord(f.Reply)
		e.Varint(int64(rec.Instance))
		e.U8(rec.Class)
		if rec.Class != errClassNone {
			e.Str(rec.Msg)
		}
	default:
		return dst, fmt.Errorf("wire: cannot marshal frame kind %v", f.Kind)
	}
	binary.LittleEndian.PutUint32(e.B[len(dst):], uint32(len(e.B)-len(dst)-4))
	return e.B, nil
}

// decodeFrame decodes one frame payload (without its length prefix).
func decodeFrame(payload []byte) (Frame, error) {
	d := bin.NewDec(payload)
	f := Frame{Kind: FrameKind(d.U8()), At: sim.Duration(d.Varint())}
	switch f.Kind {
	case FrameEvent:
		f.Event = trace.Event{
			Instance: int(d.Varint()),
			At:       sim.Duration(d.Varint()),
			Action:   trace.Action{Kind: trace.ActionKind(d.U8()), Widget: ui.WidgetPath(d.Str())},
			From:     ui.Signature(d.U64()),
			To:       ui.Signature(d.U64()),
			Activity: d.Str(),
		}
		flags := d.U8()
		f.Event.Crashed = flags&1 != 0
		f.Event.Enforced = flags&2 != 0
	case FrameCommand:
		f.Cmd = bus.Command{
			Kind:     bus.CommandKind(d.U8()),
			Instance: int(d.Varint()),
			Screen:   ui.Signature(d.U64()),
			Widget:   ui.WidgetPath(d.Str()),
		}
	case FrameReply:
		rec := bin.Reply{Instance: int(d.Varint()), Class: d.U8()}
		if rec.Class != errClassNone {
			rec.Msg = d.Str()
		}
		f.Reply = ReplyOf(rec)
	default:
		return Frame{}, fmt.Errorf("wire: unknown frame kind %d", byte(f.Kind))
	}
	if err := d.Err(); err != nil {
		return Frame{}, fmt.Errorf("wire: %v frame: %w", f.Kind, err)
	}
	if d.Rem() != 0 {
		return Frame{}, fmt.Errorf("wire: %d trailing bytes after %v frame", d.Rem(), f.Kind)
	}
	return f, nil
}

// --- wire log reading -----------------------------------------------------

// Log is a decoded wire log: the stream's header, the recorded run config
// and every later record in stream order.
type Log struct {
	Header  bin.Header
	Config  bin.RunConfig
	Records []bin.Record
}

// ReadLog decodes a wire log produced by a Recorder. It validates the magic,
// the codec version, the protocol flag and that the run config opens the
// stream.
func ReadLog(r io.Reader) (*Log, error) {
	br, err := OpenLog(r)
	if err != nil {
		return nil, err
	}
	log := &Log{Header: br.Header(), Config: br.Config}
	for {
		rec, err := br.Next()
		if err == io.EOF {
			return log, nil
		}
		if err != nil {
			return nil, fmt.Errorf("wire: record %d: %w", len(log.Records), err)
		}
		log.Records = append(log.Records, rec)
	}
}

// LogReader streams a wire log's records after its run config.
type LogReader struct {
	*bin.Reader
	Config bin.RunConfig
}

// OpenLog opens a wire log for streaming: the binary-trace header must set
// the protocol flag and the run config must be the first record.
func OpenLog(r io.Reader) (*LogReader, error) {
	br, err := bin.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	if !br.Header().Protocol {
		return nil, fmt.Errorf("wire: not a wire log (binary trace without protocol records)")
	}
	rec, err := br.Next()
	if err != nil {
		return nil, fmt.Errorf("wire: reading run config: %w", err)
	}
	if rec.Kind != bin.KindRunConfig {
		return nil, fmt.Errorf("wire: log opens with %v, want config", rec.Kind)
	}
	return &LogReader{Reader: br, Config: *rec.Config}, nil
}
