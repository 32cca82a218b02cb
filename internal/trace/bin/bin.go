// Package bin is the repository's one recorded-run format: the streaming,
// storage-efficient twin of the JSON run export. A campaign run writes its
// unbounded data — UI transition events, timeline samples, coordinator
// decisions — as varint-encoded records in fixed-size chunks *while the run
// progresses*, never whole-run buffered, and closes the stream with the
// bounded end-of-run summaries (instances, subspaces, screens, transport
// accounting, metrics, totals). The JSON export (export format v5) stays the
// human-readable debug view; this format is what corpus-scale analytics
// (cmd/tracetool corpus) stream over thousands of runs in one pass.
//
// A wire log is the same stream with the protocol flag set in its header.
// Besides every record of a binary trace it carries the protocol records a
// replay needs to re-drive the coordinator without the farm, the tools or
// the fault plan: the resolved run config, screen definitions with their
// full hierarchies, delivered events, command/reply exchanges, injected
// fates, leases, ticks and the run-end transport accounting. Readers that
// only want the run's export (export.ReadBin, corpus) skip those records.
//
// # Layout
//
//	"TAOPTTB" magic (7 bytes) ++ version byte
//	chunk*   where chunk = u32-LE payload length ++ payload
//	payload  = record*  (records never straddle a chunk boundary)
//	record   = kind byte ++ varint/uvarint/f64 fields (per-kind)
//
// The writer flushes a chunk as soon as the pending payload reaches
// ChunkSize, so peak writer memory is O(ChunkSize + intern tables) —
// independent of run length (the intern tables grow with *distinct* strings
// and screen signatures, which are bounded by the app, not the run).
//
// # Compactness
//
// Three tricks keep the stream small relative to the JSON view:
//
//   - Interning: strings (activities, widget paths, decision kinds, crash
//     signatures, metric names, reply messages, screen-tree fields) and
//     8-byte screen signatures are emitted once as definition records and
//     referenced by small varint IDs after.
//   - Delta timestamps: event times are deltas against the same instance's
//     previous event, sample times against the previous sample, decision
//     times against the previous decision, protocol record times against
//     the previous protocol record — all small varints.
//   - Field packing: action kind and the crashed/enforced flags share one
//     byte; optional decision fields sit behind a presence bitmap.
//
// # Versioning rules
//
// The version byte after the magic is the binary codec revision. Readers
// reject versions they do not know; any change to record layouts, the
// interning scheme or the chunk framing bumps it. The header record carries
// the JSON export schema version the stream mirrors (ExportVersion), so a
// decoded stream rebuilds a Run of the era that wrote it. Protocol record
// kinds appear only in streams whose header sets the protocol flag; a
// reader rejects them anywhere else. A stream without the flag is therefore
// byte-for-byte what revision 1 always wrote, which is why adding the
// protocol kinds did not bump Version. DESIGN.md §12 documents the contract.
package bin

import (
	"encoding/binary"
	"fmt"
	"io"

	"taopt/internal/obs"
	"taopt/internal/trace"
	"taopt/internal/ui"
)

const (
	// Magic opens every binary trace file.
	Magic = "TAOPTTB"
	// Version is the binary codec revision.
	Version = 1
	// ExportVersion is the JSON export schema (export.FormatVersion) this
	// codec revision mirrors losslessly; writers stamp it into the header
	// and readers hand it back so a rebuilt Run names its schema era.
	ExportVersion = 5
	// ChunkSize is the flush threshold: a chunk is written out as soon as
	// the pending payload reaches this many bytes. One oversized record
	// (a long metric series, say) may exceed it; the chunk then holds that
	// record alone.
	ChunkSize = 32 << 10
	// maxChunkSize bounds a chunk claimed by the length prefix; anything
	// larger marks a corrupt or truncated stream, not a legitimate chunk.
	maxChunkSize = 1 << 26
)

// Kind tags one record of the stream.
type Kind byte

// Record kinds. KindStrDef and KindSigDef are interning records the Reader
// consumes internally; Next never surfaces them. The kinds from
// KindRunConfig on are protocol records (see Kind.Protocol).
const (
	// KindHeader opens the stream: run identity, scenario hash, schema era.
	KindHeader Kind = iota + 1
	// KindStrDef defines the next string-table entry (IDs are sequential).
	KindStrDef
	// KindSigDef defines the next signature-table entry.
	KindSigDef
	// KindEvent is one UI transition event of one instance, as the driver
	// emitted it (before any fault decoration), launch events included.
	KindEvent
	// KindSample is one timeline sample point.
	KindSample
	// KindDecision is one coordinator decision-log entry.
	KindDecision
	// KindInstance is the end-of-run summary of one instance lease (with
	// its crashes), in allocation order.
	KindInstance
	// KindSubspace is one accepted UI subspace (members sorted ascending).
	KindSubspace
	// KindScreen is one distinct abstract screen (first-seen order).
	KindScreen
	// KindTransport is the chaos run's transport accounting block.
	KindTransport
	// KindMetric is one metrics-registry snapshot entry (sorted order).
	KindMetric
	// KindEnd closes the stream with the run totals.
	KindEnd
	// KindRunConfig follows the header of a protocol stream: the resolved
	// config a replay rebuilds the coordinator from.
	KindRunConfig
	// KindScreenDef defines one abstract screen (signature + exemplar
	// hierarchy) before any record references it, in the trace book's
	// insertion order.
	KindScreenDef
	// KindDelivered is one trace event as delivered to the coordinator
	// side, after drops and delays.
	KindDelivered
	// KindCommand is one coordinator→executor command.
	KindCommand
	// KindReply is the executor's answer to the preceding KindCommand.
	KindReply
	// KindFate is a Kill/Hang command the fault plan injected below the
	// coordinator (not part of a command/reply exchange).
	KindFate
	// KindLease records one instance boot; the instance's launch event
	// follows as a KindEvent record.
	KindLease
	// KindTick records one strategy tick (the coordinator's health monitor
	// and allocation-retry cadence).
	KindTick
	// KindRunEnd is the transport's final delivery accounting, written
	// before the end-of-run summaries.
	KindRunEnd
)

// Protocol reports whether k is a protocol record kind, legal only in a
// stream whose header sets Protocol.
func (k Kind) Protocol() bool { return k >= KindRunConfig && k <= KindRunEnd }

var kindNames = [...]string{
	KindHeader: "header", KindStrDef: "strdef", KindSigDef: "sigdef",
	KindEvent: "event", KindSample: "sample", KindDecision: "decision",
	KindInstance: "instance", KindSubspace: "subspace", KindScreen: "screen",
	KindTransport: "transport", KindMetric: "metric", KindEnd: "end",
	KindRunConfig: "config", KindScreenDef: "screendef", KindDelivered: "delivered",
	KindCommand: "command", KindReply: "reply", KindFate: "fate",
	KindLease: "lease", KindTick: "tick", KindRunEnd: "run-end",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", byte(k))
}

// Header flag bits.
const (
	flagTelemetry = 1 << iota
	flagFaults
	flagProtocol
)

// Header is the run identity the stream opens with.
type Header struct {
	App     string
	Tool    string
	Setting string
	Seed    int64
	// ScenarioHash is the canonical content hash of the scenario document
	// that defined the run's app; empty for apps built in code.
	ScenarioHash string
	// ExportVersion is the JSON export schema era the stream mirrors.
	ExportVersion int
	// Telemetry marks a run that carried a telemetry block (decision log +
	// metrics); it disambiguates "telemetry on but empty" from "off".
	Telemetry bool
	// Faults marks a chaos run (a transport record follows at the end).
	Faults bool
	// Protocol marks a wire log: the stream also carries protocol records.
	Protocol bool
}

// Sample is one timeline point (raw fields; the bin layer depends on no
// metrics types).
type Sample struct {
	WallNS    int64
	MachineNS int64
	Covered   int
	Crashes   int
	AJS       float64
}

// Crash is one recorded crash of an instance summary.
type Crash struct {
	Signature string
	AtNS      int64
	Frames    []string
}

// InstanceSummary is the end-of-run record of one instance lease.
type InstanceSummary struct {
	ID          int
	AllocatedNS int64
	ReleasedNS  int64
	Failed      bool
	Coverage    int
	Crashes     []Crash
}

// Subspace is one accepted UI subspace; Members must be sorted ascending
// (the canonical export order).
type Subspace struct {
	ID      int
	Entry   uint64
	Members []uint64
	Owner   int
	FoundNS int64
}

// Screen is one distinct abstract screen digest.
type Screen struct {
	Sig      uint64
	Activity string
	Nodes    int
}

// Transport is a run's coordination-transport accounting: the KindTransport
// block of a chaos run, and the KindRunEnd record of every wire log.
type Transport struct {
	Events          int
	Delivered       int
	Commands        int
	CommandFailures int
	Dropped         int
	Delayed         int
	Deaths          int
	Hangs           int
	AllocFailures   int
	LostCommands    int
	FailedInstances int
	OrphansPending  int
	// HasMix marks a per-kind command breakdown; Mix is ordered like
	// bus.CommandKind (allocate, deallocate, block-widget, block-member,
	// kill, hang).
	HasMix bool
	Mix    [6]int
}

// End closes the stream with the run totals.
type End struct {
	WallNS        int64
	MachineNS     int64
	Coverage      int
	UniqueCrashes int
}

// RunConfig is the resolved run configuration a protocol stream carries.
type RunConfig struct {
	// Instances is the configured d_max; MaxDevices is the farm's actual
	// concurrency cap (they differ for single-long runs).
	Instances       int
	MaxDevices      int
	DurationNS      int64
	MachineBudgetNS int64
	SampleEveryNS   int64
	// CoreOverride marks a run whose coordinator used a caller-supplied
	// configuration; the override itself is not recorded, so such a log
	// can be dumped but not replayed.
	CoreOverride bool
}

// ScreenDef is one screen definition: the signature and the full
// hierarchy, from which a replay rebuilds the run's trace book.
type ScreenDef struct {
	Sig    uint64
	Screen *ui.Screen
}

// Command is one coordinator→executor command, or one injected fate, as
// raw fields; internal/bus/wire maps it to and from bus.Command.
type Command struct {
	Kind     byte
	Instance int
	Screen   uint64
	Widget   string
}

// Reply is the executor's answer to a Command as raw fields: the error
// class (0 when the command succeeded) and the error message.
// internal/bus/wire maps it to and from bus.Reply.
type Reply struct {
	Instance int
	Class    byte
	Msg      string
}

// Record is one decoded stream entry; Kind selects the meaningful payload
// field. The per-run kinds, of which a stream holds a bounded number,
// decode behind pointers, so a Record stays small for the unbounded kinds.
type Record struct {
	Kind Kind
	// AtNS is the virtual time a protocol record was written; zero for the
	// other kinds, whose payloads carry their own times.
	AtNS int64

	Header    *Header          // KindHeader
	Event     trace.Event      // KindEvent, KindDelivered (Instance set)
	Sample    Sample           // KindSample
	Decision  obs.Decision     // KindDecision
	Summary   *InstanceSummary // KindInstance
	Subspace  *Subspace        // KindSubspace
	Screen    Screen           // KindScreen
	Transport *Transport       // KindTransport, KindRunEnd
	Metric    *obs.Metric      // KindMetric
	End       End              // KindEnd
	Config    *RunConfig       // KindRunConfig
	Def       ScreenDef        // KindScreenDef
	Cmd       Command          // KindCommand, KindFate
	Reply     Reply            // KindReply
	Lease     int              // KindLease: the instance ID
}

// Writer streams records into the chunked binary form. All methods are
// error-latching: the first write failure sticks and every later call is a
// no-op; check Err (or Close) once at the end, exactly like the wire
// recorder. Writer memory is bounded by ChunkSize plus the intern tables.
type Writer struct {
	w   io.Writer
	e   Enc
	err error
	// protocol mirrors Header.Protocol: only such a stream accepts the
	// protocol record kinds.
	protocol bool

	strIDs map[string]uint64
	sigIDs map[uint64]uint64

	lastEventAt map[int]int64
	lastWall    int64
	lastDecAt   int64
	lastAt      int64 // protocol record timestamps
}

// NewWriter opens a binary trace stream on w: it writes the magic, the
// codec version and the header record. A zero h.ExportVersion is stamped as
// the current ExportVersion.
func NewWriter(w io.Writer, h Header) *Writer {
	bw := &Writer{
		w:           w,
		e:           Enc{B: make([]byte, 0, ChunkSize+1024)},
		strIDs:      make(map[string]uint64),
		sigIDs:      make(map[uint64]uint64),
		lastEventAt: make(map[int]int64),
		protocol:    h.Protocol,
	}
	if _, err := io.WriteString(w, Magic); err != nil {
		bw.err = fmt.Errorf("bin: writing magic: %w", err)
		return bw
	}
	if _, err := w.Write([]byte{Version}); err != nil {
		bw.err = fmt.Errorf("bin: writing version: %w", err)
		return bw
	}
	if h.ExportVersion == 0 {
		h.ExportVersion = ExportVersion
	}
	bw.header(h)
	return bw
}

// Err returns the first error the writer hit, or nil.
func (w *Writer) Err() error { return w.err }

// Close flushes the pending chunk and returns the first error. It does not
// close the underlying writer, which the caller owns.
func (w *Writer) Close() error {
	w.flush()
	return w.err
}

// flush writes the pending payload as one chunk.
func (w *Writer) flush() {
	if w.err != nil || len(w.e.B) == 0 {
		return
	}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(w.e.B)))
	if _, err := w.w.Write(lenBuf[:]); err != nil {
		w.err = fmt.Errorf("bin: writing chunk length: %w", err)
		return
	}
	if _, err := w.w.Write(w.e.B); err != nil {
		w.err = fmt.Errorf("bin: writing chunk: %w", err)
		return
	}
	w.e.B = w.e.B[:0]
}

// maybeFlush flushes once the pending payload reaches the chunk threshold.
// It is called only at record boundaries, so records never straddle chunks.
func (w *Writer) maybeFlush() {
	if len(w.e.B) >= ChunkSize {
		w.flush()
	}
}

// strRef interns s, emitting its definition record on first sight, and
// returns its table ID.
func (w *Writer) strRef(s string) uint64 {
	if id, ok := w.strIDs[s]; ok {
		return id
	}
	id := uint64(len(w.strIDs))
	w.strIDs[s] = id
	w.e.U8(byte(KindStrDef))
	w.e.Str(s)
	w.maybeFlush()
	return id
}

// sigRef interns the screen signature, emitting its definition record on
// first sight, and returns its table ID.
func (w *Writer) sigRef(sig uint64) uint64 {
	if id, ok := w.sigIDs[sig]; ok {
		return id
	}
	id := uint64(len(w.sigIDs))
	w.sigIDs[sig] = id
	w.e.U8(byte(KindSigDef))
	w.e.U64(sig)
	w.maybeFlush()
	return id
}

// --- record writers -------------------------------------------------------

func (w *Writer) header(h Header) {
	if w.err != nil {
		return
	}
	w.e.U8(byte(KindHeader))
	w.e.Str(h.App)
	w.e.Str(h.Tool)
	w.e.Str(h.Setting)
	w.e.Varint(h.Seed)
	w.e.Str(h.ScenarioHash)
	w.e.Varint(int64(h.ExportVersion))
	var flags byte
	if h.Telemetry {
		flags |= flagTelemetry
	}
	if h.Faults {
		flags |= flagFaults
	}
	if h.Protocol {
		flags |= flagProtocol
	}
	w.e.U8(flags)
	w.maybeFlush()
}

// Event appends one UI transition event (ev.Instance names its instance).
//
//lint:hotpath
func (w *Writer) Event(ev trace.Event) {
	if w.err != nil {
		return
	}
	refs := w.eventRefs(ev)
	w.e.U8(byte(KindEvent))
	w.e.Uvarint(uint64(ev.Instance))
	at := int64(ev.At)
	w.e.Varint(at - w.lastEventAt[ev.Instance])
	w.lastEventAt[ev.Instance] = at
	w.eventBody(ev, refs)
	w.maybeFlush()
}

// eventRefs are an event's interned references.
type eventRefs struct{ widget, from, to, activity uint64 }

// eventRefs interns an event's strings and signatures; it runs before the
// record's kind byte, since definitions are records of their own.
func (w *Writer) eventRefs(ev trace.Event) eventRefs {
	return eventRefs{
		widget:   w.strRef(string(ev.Action.Widget)),
		from:     w.sigRef(uint64(ev.From)),
		to:       w.sigRef(uint64(ev.To)),
		activity: w.strRef(ev.Activity),
	}
}

// eventBody appends the packed action byte and the references, the part
// of an event shared by KindEvent and KindDelivered.
func (w *Writer) eventBody(ev trace.Event, refs eventRefs) {
	packed := byte(ev.Action.Kind) & 0x3f
	if ev.Crashed {
		packed |= 0x40
	}
	if ev.Enforced {
		packed |= 0x80
	}
	w.e.U8(packed)
	w.e.Uvarint(refs.widget)
	w.e.Uvarint(refs.from)
	w.e.Uvarint(refs.to)
	w.e.Uvarint(refs.activity)
}

// Sample appends one timeline sample point.
//
//lint:hotpath
func (w *Writer) Sample(s Sample) {
	if w.err != nil {
		return
	}
	w.e.U8(byte(KindSample))
	w.e.Varint(s.WallNS - w.lastWall)
	w.lastWall = s.WallNS
	w.e.Varint(s.MachineNS)
	w.e.Varint(int64(s.Covered))
	w.e.Varint(int64(s.Crashes))
	if s.AJS != 0 {
		w.e.U8(1)
		w.e.F64(s.AJS)
	} else {
		w.e.U8(0)
	}
	w.maybeFlush()
}

// Decision presence bits (optional fields behind a bitmap; absent fields
// decode as their zero value, exactly matching the JSON view's omitempty).
const (
	decHasEntry = 1 << iota
	decHasMembers
	decHasScore
	decHasOverlap
	decHasPurity
	decHasReason
	decHasBackoff
	decHasIdle
)

// Decision appends one coordinator decision-log entry.
//
//lint:hotpath
func (w *Writer) Decision(d obs.Decision) {
	if w.err != nil {
		return
	}
	kind := w.strRef(d.Kind)
	var entry, reason uint64
	if d.Entry != 0 {
		entry = w.sigRef(d.Entry)
	}
	if d.Reason != "" {
		reason = w.strRef(d.Reason)
	}
	w.e.U8(byte(KindDecision))
	w.e.Varint(d.AtNS - w.lastDecAt)
	w.lastDecAt = d.AtNS
	w.e.Uvarint(kind)
	w.e.Varint(int64(d.Instance))
	w.e.Varint(int64(d.Sub))
	var flags byte
	if d.Entry != 0 {
		flags |= decHasEntry
	}
	if d.Members != 0 {
		flags |= decHasMembers
	}
	if d.Score != 0 {
		flags |= decHasScore
	}
	if d.Overlap != 0 {
		flags |= decHasOverlap
	}
	if d.Purity != 0 {
		flags |= decHasPurity
	}
	if d.Reason != "" {
		flags |= decHasReason
	}
	if d.BackoffNS != 0 {
		flags |= decHasBackoff
	}
	if d.IdleNS != 0 {
		flags |= decHasIdle
	}
	w.e.U8(flags)
	if flags&decHasEntry != 0 {
		w.e.Uvarint(entry)
	}
	if flags&decHasMembers != 0 {
		w.e.Varint(int64(d.Members))
	}
	if flags&decHasScore != 0 {
		w.e.F64(d.Score)
	}
	if flags&decHasOverlap != 0 {
		w.e.F64(d.Overlap)
	}
	if flags&decHasPurity != 0 {
		w.e.F64(d.Purity)
	}
	if flags&decHasReason != 0 {
		w.e.Uvarint(reason)
	}
	if flags&decHasBackoff != 0 {
		w.e.Varint(d.BackoffNS)
	}
	if flags&decHasIdle != 0 {
		w.e.Varint(d.IdleNS)
	}
	w.maybeFlush()
}

// Instance appends one end-of-run instance summary.
func (w *Writer) Instance(s InstanceSummary) {
	if w.err != nil {
		return
	}
	sigs := make([]uint64, len(s.Crashes))
	frameRefs := make([][]uint64, len(s.Crashes))
	for i, cr := range s.Crashes {
		sigs[i] = w.strRef(cr.Signature)
		frameRefs[i] = make([]uint64, len(cr.Frames))
		for j, fr := range cr.Frames {
			frameRefs[i][j] = w.strRef(fr)
		}
	}
	w.e.U8(byte(KindInstance))
	w.e.Varint(int64(s.ID))
	w.e.Varint(s.AllocatedNS)
	w.e.Varint(s.ReleasedNS)
	w.e.Bool(s.Failed)
	w.e.Varint(int64(s.Coverage))
	w.e.Uvarint(uint64(len(s.Crashes)))
	for i, cr := range s.Crashes {
		w.e.Uvarint(sigs[i])
		w.e.Varint(cr.AtNS)
		w.e.Uvarint(uint64(len(cr.Frames)))
		for _, ref := range frameRefs[i] {
			w.e.Uvarint(ref)
		}
	}
	w.maybeFlush()
}

// Subspace appends one accepted subspace (members already sorted).
func (w *Writer) Subspace(s Subspace) {
	if w.err != nil {
		return
	}
	entry := w.sigRef(s.Entry)
	members := make([]uint64, len(s.Members))
	for i, m := range s.Members {
		members[i] = w.sigRef(m)
	}
	w.e.U8(byte(KindSubspace))
	w.e.Varint(int64(s.ID))
	w.e.Uvarint(entry)
	w.e.Varint(int64(s.Owner))
	w.e.Varint(s.FoundNS)
	w.e.Uvarint(uint64(len(members)))
	for _, m := range members {
		w.e.Uvarint(m)
	}
	w.maybeFlush()
}

// Screen appends one distinct-screen digest.
func (w *Writer) Screen(s Screen) {
	if w.err != nil {
		return
	}
	sig := w.sigRef(s.Sig)
	activity := w.strRef(s.Activity)
	w.e.U8(byte(KindScreen))
	w.e.Uvarint(sig)
	w.e.Uvarint(activity)
	w.e.Varint(int64(s.Nodes))
	w.maybeFlush()
}

// Transport appends the chaos run's transport accounting block.
func (w *Writer) Transport(t Transport) {
	if w.err != nil {
		return
	}
	w.e.U8(byte(KindTransport))
	w.transportBody(t)
	w.maybeFlush()
}

func (w *Writer) transportBody(t Transport) {
	for _, v := range [...]int{
		t.Events, t.Delivered, t.Commands, t.CommandFailures, t.Dropped,
		t.Delayed, t.Deaths, t.Hangs, t.AllocFailures, t.LostCommands,
		t.FailedInstances, t.OrphansPending,
	} {
		w.e.Varint(int64(v))
	}
	w.e.Bool(t.HasMix)
	if t.HasMix {
		for _, v := range t.Mix {
			w.e.Varint(int64(v))
		}
	}
}

// Metric appends one metrics-registry snapshot entry.
func (w *Writer) Metric(m obs.Metric) {
	if w.err != nil {
		return
	}
	name := w.strRef(m.Name)
	typ := w.strRef(m.Type)
	w.e.U8(byte(KindMetric))
	w.e.Uvarint(name)
	w.e.Uvarint(typ)
	w.e.F64(m.Value)
	w.e.Varint(m.Count)
	w.e.F64(m.Min)
	w.e.F64(m.Max)
	w.e.Uvarint(uint64(len(m.Bounds)))
	for _, b := range m.Bounds {
		w.e.F64(b)
	}
	w.e.Uvarint(uint64(len(m.Counts)))
	for _, c := range m.Counts {
		w.e.Varint(c)
	}
	w.e.Uvarint(uint64(len(m.Points)))
	last := int64(0)
	for _, p := range m.Points {
		w.e.Varint(p.AtNS - last)
		last = p.AtNS
		w.e.F64(p.Value)
	}
	w.maybeFlush()
}

// End appends the run totals and flushes the final chunk (the caller still
// calls Close, which is then a no-op flush, to collect the error).
func (w *Writer) End(e End) {
	if w.err != nil {
		return
	}
	w.e.U8(byte(KindEnd))
	w.e.Varint(e.WallNS)
	w.e.Varint(e.MachineNS)
	w.e.Varint(int64(e.Coverage))
	w.e.Varint(int64(e.UniqueCrashes))
	w.flush()
}
