package device

import (
	"testing"

	"taopt/internal/app"
	"taopt/internal/apps"
	"taopt/internal/sim"
	"taopt/internal/ui"
)

// TestSigMatchesRenderAbstract pins the per-screen memo to its definition:
// on every screen of every catalog app, at several visit counts, Sig equals
// the abstraction of the app's render and each tap action's Path equals
// ui.PathOf on the rendered hierarchy. The visit counts change element
// text only, so the first visit's memo must serve the later ones.
func TestSigMatchesRenderAbstract(t *testing.T) {
	auts := []*app.App{testApp()}
	for _, name := range apps.Names() {
		auts = append(auts, apps.MustLoad(name))
	}
	for _, a := range auts {
		e := NewEmulator(0, a, sim.NewRNG(1))
		for i := range a.Screens {
			id := app.ScreenID(i)
			e.cur = id
			for _, visit := range []int{0, 1, 7} {
				e.visits[id] = visit
				if got, want := e.Sig(), a.Render(id, visit).Abstract(); got != want {
					t.Fatalf("%s screen %d visit %d: Sig = %v, Render().Abstract() = %v", a.Name, i, visit, got, want)
				}
				if got, want := e.Activity(), e.Render().Activity; got != want {
					t.Fatalf("%s screen %d: Activity = %q, rendered %q", a.Name, i, got, want)
				}
				rendered := e.Render()
				for _, act := range e.Actions(rendered) {
					if act.Node == nil {
						continue
					}
					want, err := ui.PathOf(rendered.Root, []int{1, act.Widget})
					if err != nil {
						t.Fatal(err)
					}
					if act.Path != want {
						t.Fatalf("%s screen %d widget %d: Path = %q, PathOf = %q", a.Name, i, act.Widget, act.Path, want)
					}
				}
			}
		}
	}
}

// TestMemoIsPerEmulator checks two emulators of one app keep separate
// memos, so pooled runs sharing an *app.App share no mutable state.
func TestMemoIsPerEmulator(t *testing.T) {
	a := testApp()
	e1 := NewEmulator(0, a, sim.NewRNG(1))
	e2 := NewEmulator(1, a, sim.NewRNG(2))
	e1.Sig()
	if e2.screens[e2.cur].done {
		t.Fatal("one emulator's Sig filled another's memo")
	}
	if e1.Sig() != e2.Sig() {
		t.Fatal("emulators of one app disagree on a screen's signature")
	}
}
