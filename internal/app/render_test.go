package app_test

import (
	"fmt"
	"reflect"
	"testing"

	"taopt/internal/app"
	"taopt/internal/apps"
	"taopt/internal/ui"
)

// fmtRender is Render as it was written with fmt format strings, one node
// allocation at a time: the reference the allocation-lean Render must
// reproduce node for node.
func fmtRender(a *app.App, id app.ScreenID, visit int) *ui.Screen {
	s := a.Screens[id]
	root := &ui.Node{Class: "android.widget.FrameLayout", ResourceID: "android:id/content", Enabled: true}
	toolbar := &ui.Node{Class: "androidx.appcompat.widget.Toolbar", ResourceID: "toolbar", Enabled: true}
	toolbar.Children = append(toolbar.Children, &ui.Node{
		Class: "android.widget.TextView", ResourceID: "toolbar_title", Text: s.Title, Enabled: true,
	})
	container := &ui.Node{Class: "android.widget.LinearLayout", ResourceID: "container", Enabled: true}
	for _, w := range s.Widgets {
		text := w.Label
		if w.Volatile {
			text = fmt.Sprintf("%s · %d", w.Label, visit)
		}
		container.Children = append(container.Children, &ui.Node{
			Class: w.Class, ResourceID: w.ResourceID, Text: text, Enabled: true, Clickable: true,
		})
	}
	for d := 0; d < s.Decorations; d++ {
		row := &ui.Node{Class: "android.widget.LinearLayout", ResourceID: fmt.Sprintf("row_%d", d), Enabled: true}
		text := fmt.Sprintf("%s item %d", s.Title, d)
		if d%2 == 1 {
			text = fmt.Sprintf("%s item %d (seen %d)", s.Title, d, visit)
		}
		row.Children = append(row.Children, &ui.Node{
			Class: "android.widget.TextView", ResourceID: fmt.Sprintf("row_text_%d", d), Text: text, Enabled: true,
		})
		container.Children = append(container.Children, row)
	}
	root.Children = []*ui.Node{toolbar, container}
	return &ui.Screen{Activity: s.Activity, Root: root}
}

// TestRenderMatchesFormatStrings pins Render to the fmt-built hierarchy on
// every screen of every catalog app (and the hand-built shopping app), at
// several visit counts: same nodes, same text, same flags.
func TestRenderMatchesFormatStrings(t *testing.T) {
	auts := []*app.App{app.MotivatingExample()}
	for _, name := range apps.Names() {
		auts = append(auts, apps.MustLoad(name))
	}
	for _, a := range auts {
		for i := range a.Screens {
			id := app.ScreenID(i)
			for _, visit := range []int{0, 1, 7} {
				got, want := a.Render(id, visit), fmtRender(a, id, visit)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s screen %d visit %d: Render differs from the fmt reference", a.Name, i, visit)
				}
			}
		}
	}
}
