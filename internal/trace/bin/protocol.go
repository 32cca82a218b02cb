package bin

import (
	"fmt"

	"taopt/internal/trace"
	"taopt/internal/ui"
)

// Protocol record writers. Each record opens with its kind byte and the
// delta of its virtual timestamp against the previous protocol record; a
// writer whose header did not set Protocol fails instead of writing one.

// stamp starts a protocol record. It reports false (and latches an error
// on a non-protocol stream) when the record must not be written.
func (w *Writer) stamp(k Kind, atNS int64) bool {
	if w.err != nil {
		return false
	}
	if !w.protocol {
		w.err = fmt.Errorf("bin: %v record on a stream without the protocol flag", k)
		return false
	}
	w.e.U8(byte(k))
	w.e.Varint(atNS - w.lastAt)
	w.lastAt = atNS
	return true
}

// RunConfig appends the resolved run config; a protocol stream carries it
// as its first record after the header.
func (w *Writer) RunConfig(c RunConfig) {
	if !w.stamp(KindRunConfig, 0) {
		return
	}
	w.e.Varint(int64(c.Instances))
	w.e.Varint(int64(c.MaxDevices))
	w.e.Varint(c.DurationNS)
	w.e.Varint(c.MachineBudgetNS)
	w.e.Varint(c.SampleEveryNS)
	w.e.Bool(c.CoreOverride)
	w.maybeFlush()
}

// Node flag bits of a screen definition; a zero byte is a nil node.
const (
	nodePresent = 1 << iota
	nodeEnabled
	nodeClickable
)

// ScreenDef appends one screen definition: signature, activity and the
// full hierarchy, every string interned.
func (w *Writer) ScreenDef(atNS int64, sig uint64, s *ui.Screen) {
	if w.err != nil {
		return
	}
	sigID := w.sigRef(sig)
	activity := w.strRef(s.Activity)
	w.internNode(s.Root)
	if !w.stamp(KindScreenDef, atNS) {
		return
	}
	w.e.Uvarint(sigID)
	w.e.Uvarint(activity)
	w.node(s.Root)
	w.maybeFlush()
}

func (w *Writer) internNode(n *ui.Node) {
	if n == nil {
		return
	}
	w.strRef(n.Class)
	w.strRef(n.ResourceID)
	w.strRef(n.Text)
	for _, ch := range n.Children {
		w.internNode(ch)
	}
}

// node appends a subtree whose strings internNode already defined.
func (w *Writer) node(n *ui.Node) {
	if n == nil {
		w.e.U8(0)
		return
	}
	flags := byte(nodePresent)
	if n.Enabled {
		flags |= nodeEnabled
	}
	if n.Clickable {
		flags |= nodeClickable
	}
	w.e.U8(flags)
	w.e.Uvarint(w.strIDs[n.Class])
	w.e.Uvarint(w.strIDs[n.ResourceID])
	w.e.Uvarint(w.strIDs[n.Text])
	w.e.Uvarint(uint64(len(n.Children)))
	for _, ch := range n.Children {
		w.node(ch)
	}
}

// Delivered appends one event as delivered to the coordinator side at
// atNS; the event's own time is stored as its age at delivery.
//
//lint:hotpath
func (w *Writer) Delivered(atNS int64, ev trace.Event) {
	if w.err != nil {
		return
	}
	refs := w.eventRefs(ev)
	if !w.stamp(KindDelivered, atNS) {
		return
	}
	w.e.Uvarint(uint64(ev.Instance))
	w.e.Varint(atNS - int64(ev.At))
	w.eventBody(ev, refs)
	w.maybeFlush()
}

// Command appends one coordinator→executor command.
//
//lint:hotpath
func (w *Writer) Command(atNS int64, c Command) { w.command(KindCommand, atNS, c) }

// Fate appends one command the fault plan injected below the coordinator.
func (w *Writer) Fate(atNS int64, c Command) { w.command(KindFate, atNS, c) }

func (w *Writer) command(k Kind, atNS int64, c Command) {
	if w.err != nil {
		return
	}
	screen := w.sigRef(c.Screen)
	widget := w.strRef(c.Widget)
	if !w.stamp(k, atNS) {
		return
	}
	w.e.U8(c.Kind)
	w.e.Varint(int64(c.Instance))
	w.e.Uvarint(screen)
	w.e.Uvarint(widget)
	w.maybeFlush()
}

// Reply appends the executor's answer to the preceding command.
//
//lint:hotpath
func (w *Writer) Reply(atNS int64, r Reply) {
	if w.err != nil {
		return
	}
	var msg uint64
	if r.Class != 0 {
		msg = w.strRef(r.Msg)
	}
	if !w.stamp(KindReply, atNS) {
		return
	}
	w.e.Varint(int64(r.Instance))
	w.e.U8(r.Class)
	if r.Class != 0 {
		w.e.Uvarint(msg)
	}
	w.maybeFlush()
}

// Lease appends one instance boot.
func (w *Writer) Lease(atNS int64, id int) {
	if !w.stamp(KindLease, atNS) {
		return
	}
	w.e.Varint(int64(id))
	w.maybeFlush()
}

// Tick appends one strategy tick.
func (w *Writer) Tick(atNS int64) {
	if !w.stamp(KindTick, atNS) {
		return
	}
	w.maybeFlush()
}

// RunEnd appends the transport's final delivery accounting.
func (w *Writer) RunEnd(atNS int64, t Transport) {
	if !w.stamp(KindRunEnd, atNS) {
		return
	}
	w.transportBody(t)
	w.maybeFlush()
}

// maxNodeDepth bounds a decoded screen hierarchy; a deeper tree is a
// corrupt stream, not an app (and would otherwise recurse without limit).
const maxNodeDepth = 256

// stamp decodes a protocol record's timestamp; such a record in a stream
// without the protocol flag is corruption.
func (r *Reader) stamp(rec *Record) {
	if !r.hdr.Protocol {
		r.d.Failf("%v record in a stream without the protocol flag", rec.Kind)
		return
	}
	r.lastAt += r.d.Varint()
	rec.AtNS = r.lastAt
}

func (r *Reader) runConfig() *RunConfig {
	return &RunConfig{
		Instances:       int(r.d.Varint()),
		MaxDevices:      int(r.d.Varint()),
		DurationNS:      r.d.Varint(),
		MachineBudgetNS: r.d.Varint(),
		SampleEveryNS:   r.d.Varint(),
		CoreOverride:    r.d.Bool(),
	}
}

func (r *Reader) screenDef() ScreenDef {
	sig := r.sig()
	return ScreenDef{Sig: sig, Screen: &ui.Screen{Activity: r.str(), Root: r.node(0)}}
}

func (r *Reader) delivered(atNS int64) trace.Event {
	inst := int(r.d.Uvarint())
	return r.eventBody(inst, atNS-r.d.Varint())
}

func (r *Reader) command() Command {
	return Command{
		Kind:     r.d.U8(),
		Instance: int(r.d.Varint()),
		Screen:   r.sig(),
		Widget:   r.str(),
	}
}

func (r *Reader) reply() Reply {
	rep := Reply{Instance: int(r.d.Varint()), Class: r.d.U8()}
	if rep.Class != 0 {
		rep.Msg = r.str()
	}
	return rep
}

func (r *Reader) node(depth int) *ui.Node {
	flags := r.d.U8()
	if flags&nodePresent == 0 || r.d.Err() != nil {
		return nil
	}
	if depth >= maxNodeDepth {
		r.d.Failf("screen hierarchy deeper than %d", maxNodeDepth)
		return nil
	}
	n := &ui.Node{
		Class:      r.str(),
		ResourceID: r.str(),
		Text:       r.str(),
		Enabled:    flags&nodeEnabled != 0,
		Clickable:  flags&nodeClickable != 0,
	}
	count := r.d.Count()
	for i := 0; i < count && r.d.Err() == nil; i++ {
		n.Children = append(n.Children, r.node(depth+1))
	}
	return n
}
