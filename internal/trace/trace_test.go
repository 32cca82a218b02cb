package trace

import (
	"reflect"
	"testing"

	"taopt/internal/sim"
	"taopt/internal/ui"
)

func mkScreen(activity, res string) *ui.Screen {
	return &ui.Screen{Activity: activity, Root: &ui.Node{
		Class: "FrameLayout", ResourceID: res, Enabled: true,
		Children: []*ui.Node{{Class: "Button", ResourceID: res + "_b", Text: "hello", Enabled: true, Clickable: true}},
	}}
}

func TestActionKindString(t *testing.T) {
	for kind, want := range map[ActionKind]string{
		ActionLaunch: "launch", ActionTap: "tap", ActionBack: "back", ActionKind(99): "unknown",
	} {
		if kind.String() != want {
			t.Errorf("%d.String() = %q, want %q", kind, kind.String(), want)
		}
	}
}

func TestLogScreens(t *testing.T) {
	var l Log
	l.Append(Event{At: 5, To: ui.Signature(1)})
	l.Append(Event{At: 9, To: ui.Signature(2)})
	sigs, times := l.Screens()
	if len(sigs) != 2 || sigs[1] != ui.Signature(2) || times[0] != 5 {
		t.Fatalf("Screens = %v %v", sigs, times)
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestBookDedup(t *testing.T) {
	b := NewBook()
	s1 := mkScreen("A", "r1")
	s2 := mkScreen("A", "r1") // same structure, would-be different text
	s2.Root.Children[0].Text = "different"
	s3 := mkScreen("B", "r1")

	sig1 := b.Observe(s1)
	sig2 := b.Observe(s2)
	sig3 := b.Observe(s3)
	if sig1 != sig2 {
		t.Fatal("text variants must share a signature")
	}
	if sig1 == sig3 {
		t.Fatal("different activities must not collide")
	}
	if b.Len() != 2 {
		t.Fatalf("Book.Len = %d, want 2", b.Len())
	}
	if got := b.Signatures(); len(got) != 2 || got[0] != sig1 {
		t.Fatalf("Signatures = %v", got)
	}
	if b.Lookup(sig3).Activity != "B" {
		t.Fatal("Lookup returned wrong exemplar")
	}
	if b.Lookup(ui.Signature(12345)) != nil {
		t.Fatal("Lookup of unknown signature must be nil")
	}
}

func TestBookClonesExemplar(t *testing.T) {
	b := NewBook()
	s := mkScreen("A", "r1")
	sig := b.Observe(s)
	s.Root.Children[0].ResourceID = "mutated"
	if b.Lookup(sig).Root.Children[0].ResourceID == "mutated" {
		t.Fatal("Book must clone observed screens")
	}
}

func TestLogReplay(t *testing.T) {
	var l Log
	for i := 1; i <= 4; i++ {
		l.Append(Event{At: sim.Duration(i), To: ui.Signature(i)})
	}
	var got []ui.Signature
	l.Replay(func(e Event) { got = append(got, e.To) })
	if len(got) != 4 {
		t.Fatalf("Replay visited %d events", len(got))
	}
	for i, sig := range got {
		if sig != ui.Signature(i+1) {
			t.Fatalf("Replay out of order: %v", got)
		}
	}
	var empty Log
	empty.Replay(func(Event) { t.Fatal("empty log must not invoke fn") })
}

// TestObserveSigRendersOnce checks ObserveSig calls render exactly once per
// new signature, never on a repeat, and keeps the exemplar Observe would.
func TestObserveSigRendersOnce(t *testing.T) {
	screens := []*ui.Screen{mkScreen("A", "r1"), mkScreen("A", "r1"), mkScreen("B", "r1"), mkScreen("A", "r2")}
	screens[1].Root.Children[0].Text = "second visit"
	viaSig, viaObserve := NewBook(), NewBook()
	renders := map[ui.Signature]int{}
	for _, s := range screens {
		sig := s.Abstract()
		got := viaSig.ObserveSig(sig, func() *ui.Screen { renders[sig]++; return s })
		if got != sig {
			t.Fatalf("ObserveSig returned %v, want %v", got, sig)
		}
		viaObserve.Observe(s)
	}
	if len(renders) != 3 {
		t.Fatalf("rendered %d signatures, want 3", len(renders))
	}
	for sig, n := range renders {
		if n != 1 {
			t.Fatalf("signature %v rendered %d times, want 1", sig, n)
		}
	}
	if !reflect.DeepEqual(viaSig.Signatures(), viaObserve.Signatures()) {
		t.Fatalf("order %v, Observe's %v", viaSig.Signatures(), viaObserve.Signatures())
	}
	for _, sig := range viaSig.Signatures() {
		if !reflect.DeepEqual(viaSig.Lookup(sig), viaObserve.Lookup(sig)) {
			t.Fatalf("exemplar of %v differs from Observe's", sig)
		}
	}
	if viaSig.Lookup(screens[0].Abstract()).Root.Children[0].Text != "hello" {
		t.Fatal("a repeat replaced the first exemplar")
	}
	screens[0].Root.Children[0].Enabled = false
	if !viaSig.Lookup(screens[0].Abstract()).Root.Children[0].Enabled {
		t.Fatal("ObserveSig must clone the rendered screen")
	}
}
