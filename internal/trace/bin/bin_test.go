package bin

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"

	"taopt/internal/obs"
	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/ui"
)

func testHeader() Header {
	return Header{
		App:          "Filters For Selfie",
		Tool:         "monkey",
		Setting:      "taopt-duration",
		Seed:         15,
		ScenarioHash: "deadbeef",
		Telemetry:    true,
		Faults:       true,
	}
}

func testEvent(i int) trace.Event {
	return trace.Event{
		Instance: i % 3,
		At:       sim.Duration(int64(i) * 1e6),
		Action: trace.Action{
			Kind:   trace.ActionKind(i % 3),
			Widget: ui.WidgetPath(fmt.Sprintf("path/%d", i%7)),
		},
		From:     ui.Signature(uint64(i % 11)),
		To:       ui.Signature(uint64(i % 13)),
		Activity: fmt.Sprintf("Activity%d", i%5),
		Crashed:  i%17 == 0,
		Enforced: i%19 == 0,
	}
}

// TestRoundTripAllKinds drives every record kind through a write/read cycle
// and compares field by field.
func TestRoundTripAllKinds(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, testHeader())

	events := make([]trace.Event, 50)
	for i := range events {
		events[i] = testEvent(i)
		w.Event(events[i])
	}
	samples := []Sample{
		{WallNS: 1e9, MachineNS: 3e9, Covered: 4, Crashes: 0},
		{WallNS: 2e9, MachineNS: 6e9, Covered: 9, Crashes: 1, AJS: 0.75},
	}
	for _, s := range samples {
		w.Sample(s)
	}
	decisions := []obs.Decision{
		{AtNS: 5e8, Kind: "allocate", Instance: 1, Sub: -1, Reason: "cold start"},
		{AtNS: 7e8, Kind: "accept-subspace", Instance: 2, Sub: 3, Entry: 11,
			Members: 4, Score: 0.9, Overlap: 0.1, Purity: 0.8, BackoffNS: 2e6, IdleNS: 9e5},
	}
	for _, d := range decisions {
		w.Decision(d)
	}
	instances := []InstanceSummary{
		{ID: 0, AllocatedNS: 0, ReleasedNS: 9e9, Coverage: 12},
		{ID: 1, AllocatedNS: 1e9, ReleasedNS: 8e9, Failed: true, Coverage: 7,
			Crashes: []Crash{{Signature: "NPE@Foo", AtNS: 4e9, Frames: []string{"Foo.bar", "Foo.baz"}}}},
	}
	for _, s := range instances {
		w.Instance(s)
	}
	subspaces := []Subspace{
		{ID: 0, Entry: 11, Members: []uint64{3, 11, 12}, Owner: 2, FoundNS: 6e9},
	}
	for _, s := range subspaces {
		w.Subspace(s)
	}
	screens := []Screen{
		{Sig: 3, Activity: "Main", Nodes: 9},
		{Sig: 11, Activity: "Settings", Nodes: 4},
	}
	for _, s := range screens {
		w.Screen(s)
	}
	transport := Transport{
		Events: 50, Delivered: 48, Commands: 9, CommandFailures: 1, Dropped: 2,
		Delayed: 3, Deaths: 1, Hangs: 0, AllocFailures: 2, LostCommands: 1,
		FailedInstances: 1, OrphansPending: 0,
		HasMix: true, Mix: [6]int{4, 3, 1, 0, 1, 0},
	}
	w.Transport(transport)
	metrics := []obs.Metric{
		{Name: "alloc.count", Type: "counter", Value: 9, Count: 9},
		{Name: "observe.lat", Type: "histogram", Value: 42, Count: 7, Min: 1, Max: 12,
			Bounds: []float64{1, 5, 10}, Counts: []int64{2, 3, 1, 1},
			Points: []obs.SeriesPoint{{AtNS: 1e9, Value: 3}, {AtNS: 2e9, Value: 5}}},
	}
	for _, m := range metrics {
		w.Metric(m)
	}
	end := End{WallNS: 9e9, MachineNS: 27e9, Coverage: 14, UniqueCrashes: 1}
	w.End(end)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	wantHdr := testHeader()
	wantHdr.ExportVersion = ExportVersion
	if r.Header() != wantHdr {
		t.Fatalf("header = %+v, want %+v", r.Header(), wantHdr)
	}

	var gotEvents []trace.Event
	var gotSamples []Sample
	var gotDecisions []obs.Decision
	var gotInstances []InstanceSummary
	var gotSubspaces []Subspace
	var gotScreens []Screen
	var gotTransport *Transport
	var gotMetrics []obs.Metric
	var gotEnd *End
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		switch rec.Kind {
		case KindEvent:
			gotEvents = append(gotEvents, rec.Event)
		case KindSample:
			gotSamples = append(gotSamples, rec.Sample)
		case KindDecision:
			gotDecisions = append(gotDecisions, rec.Decision)
		case KindInstance:
			gotInstances = append(gotInstances, *rec.Summary)
		case KindSubspace:
			gotSubspaces = append(gotSubspaces, *rec.Subspace)
		case KindScreen:
			gotScreens = append(gotScreens, rec.Screen)
		case KindTransport:
			gotTransport = rec.Transport
		case KindMetric:
			gotMetrics = append(gotMetrics, *rec.Metric)
		case KindEnd:
			e := rec.End
			gotEnd = &e
		default:
			t.Fatalf("unexpected record kind %v", rec.Kind)
		}
	}
	if !reflect.DeepEqual(gotEvents, events) {
		t.Errorf("events differ: got %d, want %d", len(gotEvents), len(events))
	}
	if !reflect.DeepEqual(gotSamples, samples) {
		t.Errorf("samples differ: %+v vs %+v", gotSamples, samples)
	}
	if !reflect.DeepEqual(gotDecisions, decisions) {
		t.Errorf("decisions differ: %+v vs %+v", gotDecisions, decisions)
	}
	if !reflect.DeepEqual(gotInstances, instances) {
		t.Errorf("instances differ: %+v vs %+v", gotInstances, instances)
	}
	if !reflect.DeepEqual(gotSubspaces, subspaces) {
		t.Errorf("subspaces differ: %+v vs %+v", gotSubspaces, subspaces)
	}
	if !reflect.DeepEqual(gotScreens, screens) {
		t.Errorf("screens differ: %+v vs %+v", gotScreens, screens)
	}
	if gotTransport == nil || *gotTransport != transport {
		t.Errorf("transport differs: %+v vs %+v", gotTransport, transport)
	}
	if !reflect.DeepEqual(gotMetrics, metrics) {
		t.Errorf("metrics differ: %+v vs %+v", gotMetrics, metrics)
	}
	if gotEnd == nil || *gotEnd != end {
		t.Errorf("end differs: %+v vs %+v", gotEnd, end)
	}
}

// TestWriterMemoryBounded asserts the streaming promise: the writer's buffer
// never grows with run length. A 150k-event run must leave the same buffer
// capacity as a 10k-event run, and that capacity stays within a small
// constant of ChunkSize.
func TestWriterMemoryBounded(t *testing.T) {
	capAfter := func(n int) int {
		w := NewWriter(io.Discard, testHeader())
		for i := 0; i < n; i++ {
			w.Event(testEvent(i))
			if i%1000 == 0 {
				w.Sample(Sample{WallNS: int64(i) * 1e6, MachineNS: int64(i) * 3e6, Covered: i / 1000})
			}
		}
		w.End(End{WallNS: int64(n) * 1e6})
		if err := w.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		return cap(w.e.B)
	}
	small := capAfter(10_000)
	big := capAfter(150_000)
	if small != big {
		t.Errorf("buffer capacity grew with run length: %d after 10k events, %d after 150k", small, big)
	}
	if big > 2*ChunkSize {
		t.Errorf("buffer capacity %d exceeds 2x ChunkSize (%d)", big, 2*ChunkSize)
	}
}

// TestWriterSteadyStateAllocs asserts the hot path (event writes with
// already-interned strings) does not allocate per event.
func TestWriterSteadyStateAllocs(t *testing.T) {
	w := NewWriter(io.Discard, testHeader())
	for i := 0; i < 1000; i++ { // warm up intern tables and buffer
		w.Event(testEvent(i))
	}
	i := 1000
	avg := testing.AllocsPerRun(10_000, func() {
		w.Event(testEvent(i))
		i++
	})
	if err := w.Err(); err != nil {
		t.Fatalf("writer error: %v", err)
	}
	// testEvent itself allocates its widget/activity strings via Sprintf; the
	// budget of 4 covers those, not writer work (the writer's own appends are
	// amortised zero once buf and the tables are warm).
	if avg > 4 {
		t.Errorf("steady-state Event allocates %.1f times per call, want <= 4", avg)
	}

	// The protocol records of a wire log: once the tables and the buffer
	// are warm, writing them allocates nothing.
	h := testHeader()
	h.Protocol = true
	pw := NewWriter(io.Discard, h)
	ev := testEvent(1)
	cmd := Command{Kind: 2, Instance: 1, Screen: 7, Widget: "path/1"}
	rep := Reply{Instance: 1, Class: 1, Msg: "farm busy"}
	at := int64(0)
	protocol := func() {
		at += 1e6
		pw.Delivered(at, ev)
		pw.Command(at, cmd)
		pw.Reply(at, rep)
		pw.Fate(at, cmd)
		pw.Lease(at, 3)
		pw.Tick(at)
	}
	protocol()
	if avg := testing.AllocsPerRun(10_000, protocol); avg != 0 {
		t.Errorf("steady-state protocol records allocate %.1f times per round, want 0", avg)
	}
	if err := pw.Err(); err != nil {
		t.Fatalf("protocol writer error: %v", err)
	}
}

// TestProtocolRecordsRoundTrip writes every protocol kind into a flagged
// stream and reads it back field by field; an unflagged stream refuses
// them at both ends.
func TestProtocolRecordsRoundTrip(t *testing.T) {
	screen := &ui.Screen{Activity: "Main", Root: &ui.Node{
		Class: "FrameLayout", ResourceID: "root", Enabled: true,
		Children: []*ui.Node{
			{Class: "Button", ResourceID: "ok", Text: "OK", Enabled: true, Clickable: true},
			nil,
		},
	}}
	cfg := RunConfig{Instances: 5, MaxDevices: 1, DurationNS: 3600e9, MachineBudgetNS: 18000e9, SampleEveryNS: 10e9, CoreOverride: true}
	ev := testEvent(4)
	cmd := Command{Kind: 2, Instance: 1, Screen: 99, Widget: "root/ok"}
	tr := Transport{Events: 9, Delivered: 8, Commands: 3, FailedInstances: 1, OrphansPending: 2, HasMix: true, Mix: [6]int{1, 1, 1}}
	want := []Record{
		{Kind: KindRunConfig, Config: &cfg},
		{Kind: KindScreenDef, AtNS: 1e9, Def: ScreenDef{Sig: 99, Screen: screen}},
		{Kind: KindDelivered, AtNS: 5e9, Event: ev},
		{Kind: KindCommand, AtNS: 5e9, Cmd: cmd},
		{Kind: KindReply, AtNS: 5e9, Reply: Reply{Instance: 1}},
		{Kind: KindReply, AtNS: 5e9, Reply: Reply{Class: 4, Msg: "harness: run ended"}},
		{Kind: KindFate, AtNS: 6e9, Cmd: Command{Kind: 4, Instance: 2}},
		{Kind: KindLease, AtNS: 7e9, Lease: 3},
		{Kind: KindTick, AtNS: 8e9},
		{Kind: KindRunEnd, AtNS: 9e9, Transport: &tr},
	}
	h := testHeader()
	h.Protocol = true
	var buf bytes.Buffer
	w := NewWriter(&buf, h)
	w.RunConfig(cfg)
	w.ScreenDef(1e9, 99, screen)
	w.Delivered(5e9, ev)
	w.Command(5e9, cmd)
	w.Reply(5e9, want[4].Reply)
	w.Reply(5e9, want[5].Reply)
	w.Fate(6e9, want[6].Cmd)
	w.Lease(7e9, 3)
	w.Tick(8e9)
	w.RunEnd(9e9, tr)
	w.End(End{})
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	raw := buf.Bytes()
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if !r.Header().Protocol {
		t.Fatal("protocol flag lost")
	}
	for i, wr := range want {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, wr) {
			t.Fatalf("record %d:\n got %+v\nwant %+v", i, got, wr)
		}
	}

	plain := NewWriter(io.Discard, testHeader())
	plain.Tick(1)
	if plain.Err() == nil {
		t.Fatal("a stream without the protocol flag accepted a protocol record")
	}
	// The same bytes with the flag cleared: the reader refuses them.
	b := append([]byte(nil), raw...)
	flags := bytes.Index(b, []byte("deadbeef")) + len("deadbeef") + 1
	b[flags] &^= flagProtocol
	r, err = NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("protocol record in an unflagged stream: err = %v, want ErrCorrupt", err)
	}
}

// TestReaderMemoryBounded asserts the reader holds one chunk, not the
// stream: its chunk buffer stays at chunk scale for a 150k-event input.
func TestReaderMemoryBounded(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, testHeader())
	const n = 150_000
	for i := 0; i < n; i++ {
		w.Event(testEvent(i))
	}
	w.End(End{})
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	count := 0
	for {
		_, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		count++
	}
	if count != n+1 { // events + end
		t.Fatalf("decoded %d records, want %d", count, n+1)
	}
	if cap(r.d.b) > 2*ChunkSize {
		t.Errorf("reader chunk capacity %d exceeds 2x ChunkSize (%d); stream is %d bytes", cap(r.d.b), 2*ChunkSize, buf.Len())
	}
}

// TestReaderRejectsCorruption spot-checks the guard rails: truncation, bad
// magic, bad version, out-of-table refs all fail with ErrCorrupt and never
// panic.
func TestReaderRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, testHeader())
	for i := 0; i < 100; i++ {
		w.Event(testEvent(i))
	}
	w.End(End{WallNS: 1})
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	full := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), full...)
		b[0] ^= 0xff
		if _, err := NewReader(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		b := append([]byte(nil), full...)
		b[len(Magic)] = 99
		if _, err := NewReader(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("truncations", func(t *testing.T) {
		for cut := 1; cut < len(full); cut += 37 {
			r, err := NewReader(bytes.NewReader(full[:len(full)-cut]))
			if err != nil {
				continue // truncated inside magic/header: fine, already failed
			}
			for {
				if _, err = r.Next(); err != nil {
					break
				}
			}
			if err != io.EOF && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut %d: err = %v, want EOF or ErrCorrupt", cut, err)
			}
		}
	})
	t.Run("action kind out of range", func(t *testing.T) {
		var buf bytes.Buffer
		w := NewWriter(&buf, testHeader())
		ev := testEvent(1)
		ev.Action.Kind = trace.ActionBack + 1
		w.Event(ev)
		w.End(End{})
		if err := w.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("NewReader: %v", err)
		}
		if _, err := r.Next(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("bit flips", func(t *testing.T) {
		for pos := len(Magic) + 1; pos < len(full); pos += 53 {
			b := append([]byte(nil), full...)
			b[pos] ^= 0x55
			r, err := NewReader(bytes.NewReader(b))
			if err != nil {
				continue
			}
			for {
				if _, err = r.Next(); err != nil {
					break
				}
			}
			// A flip may survive decode (it lands in a value, not the
			// framing); the guarantee under test is no panic and no hang.
		}
	})
}

// forgedChunkStream is a 15-byte stream whose first chunk claims the
// largest legal length and then ends.
func forgedChunkStream() []byte {
	b := []byte(Magic + "\x01")
	b = append(b, 0, 0, 0, 4) // u32-LE 1<<26
	return append(b, 1, 2, 3)
}

// TestForgedChunkLengthAllocatesLittle: a chunk length the stream does not
// back costs only the bytes that arrive, not the claimed size.
func TestForgedChunkLengthAllocatesLittle(t *testing.T) {
	stream := forgedChunkStream()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewReader(bytes.NewReader(stream))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta >= 1<<20 {
		t.Fatalf("forged chunk length allocated %d bytes, want < 1 MiB", delta)
	}
}
