package main

import (
	"testing"
	"time"
)

func TestSelfTimesSubtractCoveredChildTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "pass", Start: 0, End: 100, Ops: 1},
		// Two overlapping children cover [10, 50) once: 40.
		{ID: 2, Parent: 1, Name: "call", Start: 10, End: 40, Ops: 1},
		{ID: 3, Parent: 1, Name: "call", Start: 30, End: 50, Ops: 1},
		// A child sticking out of its parent counts only inside it: [90, 100).
		{ID: 4, Parent: 1, Name: "call", Start: 90, End: 120, Ops: 1},
		// A grandchild is its child's business, not the pass's.
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 20, Ops: 4},
	}
	self := SelfTimes(spans)
	want := map[int]int64{1: 50, 2: 25, 3: 20, 4: 30, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}

	by := ByName(spans)
	call := by["call"]
	if call.Spans != 3 || call.Ops != 3 || call.TotalNS != 80 || call.SelfNS != 75 {
		t.Errorf("ByName(call) = %+v, want 3 spans, 3 ops, 80 total, 75 self", *call)
	}
	if got := by["leaf"].PerOpNS(); got != 1.25 {
		t.Errorf("leaf ns per op = %v, want 1.25", got)
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := NewTracer()
	root := tr.Begin("pass", 0, 7)
	child := tr.Begin("call", root, 7)
	time.Sleep(time.Millisecond)
	tr.End(child, 3)
	tr.End(root, 1)

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if c := spans[1]; c.Parent != root || c.Req != 7 || c.Ops != 3 || c.Dur() < int64(time.Millisecond) {
		t.Errorf("child span = %+v", c)
	}
	if r := spans[0]; r.Start > spans[1].Start || r.End < spans[1].End {
		t.Errorf("root %+v does not enclose child %+v", r, spans[1])
	}
}

func TestTracerMergeRenumbers(t *testing.T) {
	tr := NewTracer()
	root := tr.Begin("a", 0, 0)
	fork := tr.Fork(root)
	p := fork.Begin("b", 0, 0)
	fork.End(fork.Begin("c", p, 0), 1)
	fork.End(p, 1)
	tr.Merge(fork)
	tr.End(root, 1)

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for i, s := range spans {
		if s.ID != i+1 {
			t.Errorf("span %d has id %d", i, s.ID)
		}
	}
	if spans[1].Parent != root {
		t.Errorf("fork's root span has parent %d, want the forking span %d", spans[1].Parent, root)
	}
	if spans[2].Parent != spans[1].ID {
		t.Errorf("merged child's parent = %d, want %d", spans[2].Parent, spans[1].ID)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	tr.End(tr.Begin("x", 0, 0), 1)
	tr.Add("y", 0, 0, time.Now(), time.Now(), 1)
	tr.Merge(tr.Fork(0))
	if tr.Spans() != nil {
		t.Fatal("a nil tracer returned spans")
	}
}
