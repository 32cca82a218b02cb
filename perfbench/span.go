package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// Span is one timed call into a layer, recorded from outside the layer.
// Times are nanoseconds since the tracer started. Ops is how many
// operations the span covers (1 for a single call; a loop over n events
// records one span with Ops n, so per-op costs divide by it).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Req    int    `json:"req"`    // request or job id shared by related spans
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Ops    int64  `json:"ops"`
}

// Dur is the span's wall duration.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced code paths call the same methods for free. It is not
// safe for concurrent use; concurrent callers each own a Tracer and Merge
// them afterwards.
type Tracer struct {
	t0     time.Time
	spans  []Span
	parent int // for a fork: the span its root spans belong to
}

// NewTracer starts a tracer whose clock reads zero now.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Fork returns an empty tracer on the same clock, for another goroutine.
// Spans begun in it with parent 0 become children of parent, a span of t,
// when t merges the fork.
func (t *Tracer) Fork(parent int) *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{t0: t.t0, parent: parent}
}

// Merge appends the spans of o, a fork of t, renumbering their ids and
// links so ids stay unique.
func (t *Tracer) Merge(o *Tracer) {
	if t == nil || o == nil {
		return
	}
	base := len(t.spans)
	for _, s := range o.spans {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = o.parent
		} else {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// Begin opens a span and returns its id (0 on a nil tracer).
func (t *Tracer) Begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, Span{
		ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(t.t0)), Ops: 1,
	})
	return len(t.spans)
}

// End closes span id, covering ops operations.
func (t *Tracer) End(id int, ops int64) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	s.Ops = ops
}

// Add records an already-measured span.
func (t *Tracer) Add(name string, parent, req int, start, end time.Time, ops int64) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, Span{
		ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Ops: ops,
	})
	return len(t.spans)
}

// Spans returns the recorded spans in id order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// WriteJSON writes every span as one JSON array.
func (t *Tracer) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(t.Spans())
}

// SelfTimes returns each span's self time by id: its duration minus the part
// of its interval that its direct children cover (overlapping children are
// counted once, and child time outside the parent is ignored).
func SelfTimes(spans []Span) map[int]int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to p.
func covered(p Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// NameStat aggregates the spans sharing a name.
type NameStat struct {
	Spans   int
	Ops     int64
	TotalNS int64
	SelfNS  int64
	Durs    []float64 // per-span durations, ns
}

// PerOpNS is total duration per operation.
func (n NameStat) PerOpNS() float64 {
	if n.Ops == 0 {
		return 0
	}
	return float64(n.TotalNS) / float64(n.Ops)
}

// ByName folds spans into per-name aggregates with self times.
func ByName(spans []Span) map[string]*NameStat {
	self := SelfTimes(spans)
	out := make(map[string]*NameStat)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &NameStat{}
			out[s.Name] = st
		}
		st.Spans++
		st.Ops += s.Ops
		st.TotalNS += s.Dur()
		st.SelfNS += self[s.ID]
		st.Durs = append(st.Durs, float64(s.Dur()))
	}
	return out
}
