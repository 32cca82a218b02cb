package bin

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"taopt/internal/obs"
	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/ui"
)

// ErrCorrupt marks a stream that violates the format: a bad magic or
// version, a record running past its chunk, a reference outside the intern
// tables, or an implausible chunk length. Every decode failure wraps it, so
// callers can errors.Is-classify corruption apart from plain I/O errors.
var ErrCorrupt = errors.New("bin: corrupt stream")

// Reader streams records back out of a chunked binary trace. It loads one
// chunk at a time, so reader memory is bounded by the largest chunk plus the
// intern tables — never the whole stream. Interning records (KindStrDef,
// KindSigDef) are consumed internally; Next never surfaces them.
type Reader struct {
	r   io.Reader
	hdr Header
	// err is the latched stream error: I/O, framing or a record's decode
	// failure.
	err error

	// d decodes the current chunk; its buffer is reused across chunks.
	d Dec

	strs []string
	sigs []uint64

	lastEventAt map[int]int64
	lastWall    int64
	lastDecAt   int64
	lastAt      int64 // protocol record timestamps
}

// NewReader opens a binary trace stream: it validates the magic and codec
// version and decodes the mandatory header record.
func NewReader(r io.Reader) (*Reader, error) {
	br := &Reader{r: r, lastEventAt: make(map[int]int64)}
	var pre [len(Magic) + 1]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %v", ErrCorrupt, err)
	}
	if string(pre[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, pre[:len(Magic)])
	}
	if v := pre[len(Magic)]; v != Version {
		return nil, fmt.Errorf("%w: unknown codec version %d (reader knows %d)", ErrCorrupt, v, Version)
	}
	rec, err := br.Next()
	if err != nil {
		if err == io.EOF {
			err = fmt.Errorf("%w: stream ends before header record", ErrCorrupt)
		}
		return nil, err
	}
	if rec.Kind != KindHeader {
		return nil, fmt.Errorf("%w: first record is %v, want header", ErrCorrupt, rec.Kind)
	}
	br.hdr = *rec.Header
	return br, nil
}

// Header returns the run identity the stream opened with.
func (r *Reader) Header() Header { return r.hdr }

// Next returns the next record, or io.EOF at a clean end of stream (a chunk
// boundary). Errors latch: after a failure every later call returns it.
//
//lint:hotpath
func (r *Reader) Next() (Record, error) {
	for {
		if r.err != nil {
			return Record{}, r.err
		}
		if r.d.Rem() == 0 {
			if err := r.loadChunk(); err != nil {
				if err != io.EOF {
					r.err = err
				}
				return Record{}, err
			}
		}
		rec := Record{Kind: Kind(r.d.U8())}
		if rec.Kind.Protocol() {
			r.stamp(&rec)
		}
		switch rec.Kind {
		case KindStrDef:
			r.strs = append(r.strs, r.d.Str())
		case KindSigDef:
			r.sigs = append(r.sigs, r.d.U64())
		case KindHeader:
			rec.Header = r.header()
		case KindEvent:
			rec.Event = r.event()
		case KindSample:
			rec.Sample = r.sample()
		case KindDecision:
			rec.Decision = r.decision()
		case KindInstance:
			rec.Summary = r.instance()
		case KindSubspace:
			rec.Subspace = r.subspace()
		case KindScreen:
			rec.Screen = r.screen()
		case KindTransport:
			rec.Transport = r.transport()
		case KindMetric:
			rec.Metric = r.metric()
		case KindEnd:
			rec.End = r.end()
		case KindRunConfig:
			rec.Config = r.runConfig()
		case KindScreenDef:
			rec.Def = r.screenDef()
		case KindDelivered:
			rec.Event = r.delivered(rec.AtNS)
		case KindCommand, KindFate:
			rec.Cmd = r.command()
		case KindReply:
			rec.Reply = r.reply()
		case KindLease:
			rec.Lease = int(r.d.Varint())
		case KindTick:
		case KindRunEnd:
			rec.Transport = r.transport()
		default:
			r.d.Failf("unknown record kind %d", byte(rec.Kind))
		}
		if err := r.d.Err(); err != nil {
			r.err = err
			return Record{}, err
		}
		if rec.Kind != KindStrDef && rec.Kind != KindSigDef {
			return rec, nil
		}
	}
}

// loadChunk reads the next chunk's length prefix and payload. io.EOF at the
// prefix is the one clean way a stream ends.
func (r *Reader) loadChunk() error {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r.r, lenBuf[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("%w: reading chunk length: %v", ErrCorrupt, err)
	}
	n := int(binary.LittleEndian.Uint32(lenBuf[:]))
	if n == 0 || n > maxChunkSize {
		return fmt.Errorf("%w: chunk length %d out of range", ErrCorrupt, n)
	}
	// Grow the buffer only as bytes arrive, at most ChunkSize at a time: a
	// forged length costs what the stream holds, not what it claims.
	buf := r.d.b[:0]
	for len(buf) < n {
		step := min(n-len(buf), ChunkSize)
		buf = slices.Grow(buf, step)
		got, err := io.ReadFull(r.r, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+got]
		if err != nil {
			return fmt.Errorf("%w: reading %d-byte chunk: %v", ErrCorrupt, n, err)
		}
	}
	r.d = Dec{b: buf}
	return nil
}

// str resolves a string-table reference.
func (r *Reader) str() string {
	id := r.d.Uvarint()
	if r.d.Err() != nil {
		return ""
	}
	if id >= uint64(len(r.strs)) {
		r.d.Failf("string ref %d outside table of %d", id, len(r.strs))
		return ""
	}
	return r.strs[id]
}

// sig resolves a signature-table reference.
func (r *Reader) sig() uint64 {
	id := r.d.Uvarint()
	if r.d.Err() != nil {
		return 0
	}
	if id >= uint64(len(r.sigs)) {
		r.d.Failf("signature ref %d outside table of %d", id, len(r.sigs))
		return 0
	}
	return r.sigs[id]
}

// --- record decoders ------------------------------------------------------

func (r *Reader) header() *Header {
	h := &Header{
		App:           r.d.Str(),
		Tool:          r.d.Str(),
		Setting:       r.d.Str(),
		Seed:          r.d.Varint(),
		ScenarioHash:  r.d.Str(),
		ExportVersion: int(r.d.Varint()),
	}
	flags := r.d.U8()
	h.Telemetry = flags&flagTelemetry != 0
	h.Faults = flags&flagFaults != 0
	h.Protocol = flags&flagProtocol != 0
	return h
}

//lint:hotpath
func (r *Reader) event() trace.Event {
	inst := int(r.d.Uvarint())
	at := r.lastEventAt[inst] + r.d.Varint()
	if r.d.Err() == nil {
		r.lastEventAt[inst] = at
	}
	return r.eventBody(inst, at)
}

// eventBody decodes the packed action byte and the references shared by
// KindEvent and KindDelivered. An action kind other than launch, tap or
// back is corruption.
func (r *Reader) eventBody(inst int, at int64) trace.Event {
	packed := r.d.U8()
	kind := trace.ActionKind(packed & 0x3f)
	if kind > trace.ActionBack {
		r.d.Failf("action kind %d out of range", kind)
	}
	return trace.Event{
		Instance: inst,
		At:       sim.Duration(at),
		Action: trace.Action{
			Kind:   kind,
			Widget: ui.WidgetPath(r.str()),
		},
		From:     ui.Signature(r.sig()),
		To:       ui.Signature(r.sig()),
		Activity: r.str(),
		Crashed:  packed&0x40 != 0,
		Enforced: packed&0x80 != 0,
	}
}

//lint:hotpath
func (r *Reader) sample() Sample {
	s := Sample{}
	s.WallNS = r.lastWall + r.d.Varint()
	if r.d.Err() == nil {
		r.lastWall = s.WallNS
	}
	s.MachineNS = r.d.Varint()
	s.Covered = int(r.d.Varint())
	s.Crashes = int(r.d.Varint())
	if r.d.Bool() {
		s.AJS = r.d.F64()
	}
	return s
}

//lint:hotpath
func (r *Reader) decision() obs.Decision {
	d := obs.Decision{}
	d.AtNS = r.lastDecAt + r.d.Varint()
	if r.d.Err() == nil {
		r.lastDecAt = d.AtNS
	}
	d.Kind = r.str()
	d.Instance = int(r.d.Varint())
	d.Sub = int(r.d.Varint())
	flags := r.d.U8()
	if flags&decHasEntry != 0 {
		d.Entry = r.sig()
	}
	if flags&decHasMembers != 0 {
		d.Members = int(r.d.Varint())
	}
	if flags&decHasScore != 0 {
		d.Score = r.d.F64()
	}
	if flags&decHasOverlap != 0 {
		d.Overlap = r.d.F64()
	}
	if flags&decHasPurity != 0 {
		d.Purity = r.d.F64()
	}
	if flags&decHasReason != 0 {
		d.Reason = r.str()
	}
	if flags&decHasBackoff != 0 {
		d.BackoffNS = r.d.Varint()
	}
	if flags&decHasIdle != 0 {
		d.IdleNS = r.d.Varint()
	}
	return d
}

func (r *Reader) instance() *InstanceSummary {
	s := &InstanceSummary{
		ID:          int(r.d.Varint()),
		AllocatedNS: r.d.Varint(),
		ReleasedNS:  r.d.Varint(),
		Failed:      r.d.Bool(),
		Coverage:    int(r.d.Varint()),
	}
	n := r.d.Count()
	for i := 0; i < n && r.d.Err() == nil; i++ {
		cr := Crash{Signature: r.str(), AtNS: r.d.Varint()}
		fn := r.d.Count()
		for j := 0; j < fn && r.d.Err() == nil; j++ {
			cr.Frames = append(cr.Frames, r.str())
		}
		s.Crashes = append(s.Crashes, cr)
	}
	return s
}

func (r *Reader) subspace() *Subspace {
	s := &Subspace{
		ID:      int(r.d.Varint()),
		Entry:   r.sig(),
		Owner:   int(r.d.Varint()),
		FoundNS: r.d.Varint(),
	}
	n := r.d.Count()
	for i := 0; i < n && r.d.Err() == nil; i++ {
		s.Members = append(s.Members, r.sig())
	}
	return s
}

func (r *Reader) screen() Screen {
	return Screen{
		Sig:      r.sig(),
		Activity: r.str(),
		Nodes:    int(r.d.Varint()),
	}
}

func (r *Reader) transport() *Transport {
	t := &Transport{}
	for _, p := range []*int{
		&t.Events, &t.Delivered, &t.Commands, &t.CommandFailures, &t.Dropped,
		&t.Delayed, &t.Deaths, &t.Hangs, &t.AllocFailures, &t.LostCommands,
		&t.FailedInstances, &t.OrphansPending,
	} {
		*p = int(r.d.Varint())
	}
	t.HasMix = r.d.Bool()
	if t.HasMix {
		for i := range t.Mix {
			t.Mix[i] = int(r.d.Varint())
		}
	}
	return t
}

func (r *Reader) metric() *obs.Metric {
	m := &obs.Metric{
		Name:  r.str(),
		Type:  r.str(),
		Value: r.d.F64(),
		Count: r.d.Varint(),
		Min:   r.d.F64(),
		Max:   r.d.F64(),
	}
	n := r.d.Count()
	for i := 0; i < n && r.d.Err() == nil; i++ {
		m.Bounds = append(m.Bounds, r.d.F64())
	}
	n = r.d.Count()
	for i := 0; i < n && r.d.Err() == nil; i++ {
		m.Counts = append(m.Counts, r.d.Varint())
	}
	n = r.d.Count()
	last := int64(0)
	for i := 0; i < n && r.d.Err() == nil; i++ {
		at := last + r.d.Varint()
		last = at
		m.Points = append(m.Points, obs.SeriesPoint{AtNS: at, Value: r.d.F64()})
	}
	return m
}

func (r *Reader) end() End {
	return End{
		WallNS:        r.d.Varint(),
		MachineNS:     r.d.Varint(),
		Coverage:      int(r.d.Varint()),
		UniqueCrashes: int(r.d.Varint()),
	}
}
