package toller_test

import (
	"reflect"
	"testing"

	"taopt/internal/apps"
	"taopt/internal/device"
	"taopt/internal/sim"
	"taopt/internal/toller"
	"taopt/internal/tools"
	"taopt/internal/trace"
	"taopt/internal/ui"
)

// renderedView is the View the driver built before the layout table: render
// the current screen, disable every blocked path with ui.FindPath, and read
// the actions off the rendered tree.
func renderedView(d *toller.Driver) toller.View {
	emu := d.Emulator()
	screen := emu.Render()
	sig := screen.Abstract()
	for path := range d.Blocks().BlockedWidgets(sig) {
		if n := ui.FindPath(screen.Root, path); n != nil {
			n.Enabled = false
		}
	}
	return toller.View{Sig: sig, Activity: screen.Activity, Actions: emu.Actions(screen)}
}

// TestViewMatchesRenderedOracle drives every catalog app with every tool,
// blocking random entrypoints and member screens along the way, and checks
// at each step that View offers exactly what the render-based oracle
// offers: the same signature, Activity and actions (kind, widget and path,
// in order).
func TestViewMatchesRenderedOracle(t *testing.T) {
	steps := 300
	if testing.Short() {
		steps = 60
	}
	for ai, name := range apps.Names() {
		a := apps.MustLoad(name)
		for ti, toolName := range tools.Names() {
			seed := int64(100*ai + ti + 1)
			emu := device.NewEmulator(0, a, sim.NewRNG(seed))
			if ti%2 == 0 {
				emu.AutoLogin()
			}
			d := toller.NewDriver(emu, trace.NewBook(), 0)
			tool := tools.MustNew(toolName, seed)
			rng := sim.NewRNG(seed + 7)
			var now sim.Duration
			for step := 0; step < steps; step++ {
				want := renderedView(d)
				v := d.View()
				if !reflect.DeepEqual(v, want) {
					t.Fatalf("%s/%s step %d on screen %d: View = %+v, rendered oracle = %+v", name, toolName, step, emu.Current(), v, want)
				}
				switch r := rng.Float64(); {
				case r < 0.08 && len(v.Actions) > 1:
					d.Blocks().BlockWidget(v.Sig, v.Actions[rng.Intn(len(v.Actions)-1)].Path)
					continue // re-check this screen with the new block
				case r < 0.09:
					d.Blocks().BlockMember(v.Sig)
				}
				now += d.Perform(tool.Choose(v), now).Latency
			}
		}
	}
}
