package device

import (
	"reflect"
	"sync"
	"testing"

	"taopt/internal/app"
	"taopt/internal/apps"
	"taopt/internal/sim"
	"taopt/internal/trace"
	"taopt/internal/ui"
)

// TestSigMatchesRenderAbstract pins the app's layout table to its
// definition: on every screen of every catalog app, at several visit
// counts, the layout's signature equals the abstraction of the app's render
// and its paths equal ui.PathOf on the rendered hierarchy, and the
// emulator's Sig, Actions and Offered agree with them. The visit counts
// change element text only, so the table built at visit 0 must serve the
// later ones.
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
			layout := a.Layout(id)
			if len(layout.Paths) != len(a.Screen(id).Widgets) {
				t.Fatalf("%s screen %d: layout has %d paths for %d widgets", a.Name, i, len(layout.Paths), len(a.Screen(id).Widgets))
			}
			for _, visit := range []int{0, 1, 7} {
				e.visits[id] = visit
				rendered := e.Render()
				want := rendered.Abstract()
				if layout.Sig != want || e.Sig() != want {
					t.Fatalf("%s screen %d visit %d: Layout().Sig = %v, Sig = %v, Render().Abstract() = %v", a.Name, i, visit, layout.Sig, e.Sig(), want)
				}
				if got := e.Activity(); got != rendered.Activity {
					t.Fatalf("%s screen %d: Activity = %q, rendered %q", a.Name, i, got, rendered.Activity)
				}
				for w, path := range layout.Paths {
					want, err := ui.PathOf(rendered.Root, []int{1, w})
					if err != nil {
						t.Fatal(err)
					}
					if path != want {
						t.Fatalf("%s screen %d widget %d: Layout().Paths = %q, PathOf = %q", a.Name, i, w, path, want)
					}
				}
				acts := e.Actions(rendered)
				if len(acts) != len(layout.Paths)+1 || acts[len(acts)-1].Kind != trace.ActionBack {
					t.Fatalf("%s screen %d: Actions offers %d actions for %d widgets plus Back", a.Name, i, len(acts), len(layout.Paths))
				}
				for w, act := range acts[:len(layout.Paths)] {
					if act.Kind != trace.ActionTap || act.Widget != w || act.Path != layout.Paths[w] {
						t.Fatalf("%s screen %d: action %d = %+v, want a tap on widget %d at %q", a.Name, i, w, act, w, layout.Paths[w])
					}
				}
				if offered := e.Offered(nil); !reflect.DeepEqual(offered, acts) {
					t.Fatalf("%s screen %d: Offered(nil) = %+v, Actions(Render()) = %+v", a.Name, i, offered, acts)
				}
			}
		}
	}
}

// TestLayoutSharedAcrossGoroutines has several goroutines, each with its
// own emulator, read one fresh app's layout table at once, as the pooled
// cells of a campaign do. Under -race it catches a table built or written
// without synchronisation; every goroutine must see the same table.
func TestLayoutSharedAcrossGoroutines(t *testing.T) {
	a := apps.MustLoad("Zedge")
	const readers = 4
	tables := make([][]*app.Layout, readers)
	var wg sync.WaitGroup
	for g := range tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := NewEmulator(g, a, sim.NewRNG(int64(g)))
			e.Offered(nil)
			for i := range a.Screens {
				tables[g] = append(tables[g], a.Layout(app.ScreenID(i)))
			}
		}()
	}
	wg.Wait()
	for g := 1; g < readers; g++ {
		for i := range a.Screens {
			if tables[g][i] != tables[0][i] {
				t.Fatalf("goroutines %d and 0 read different layouts of screen %d", g, i)
			}
		}
	}
}
