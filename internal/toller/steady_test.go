package toller

import (
	"reflect"
	"testing"

	"taopt/internal/app"
	"taopt/internal/device"
	"taopt/internal/sim"
	"taopt/internal/trace"
)

// warmShopping drives a driver on the shopping app with seeded random taps
// until the book holds every screen, and returns the actions View offered
// on each screen.
func warmShopping(t *testing.T) (*Driver, map[app.ScreenID][]device.Action, sim.Duration) {
	t.Helper()
	a := app.MotivatingExample()
	d, book := driverFor(a)
	rng := sim.NewRNG(7)
	actions := make(map[app.ScreenID][]device.Action)
	var now sim.Duration
	for step := 0; len(actions) < len(a.Screens); step++ {
		if step == 50000 {
			t.Fatalf("warm-up saw %d of %d screens", len(actions), len(a.Screens))
		}
		v := d.View()
		actions[d.Emulator().Current()] = v.Actions
		now += d.Perform(v.Actions[rng.Intn(len(v.Actions))], now).Latency
	}
	if book.Len() != len(a.Screens) {
		t.Fatalf("book holds %d screens, the app has %d", book.Len(), len(a.Screens))
	}
	return d, actions, now
}

// TestPerformRendersNothingWhenWarm guards the step path: once the book has
// seen every screen, Driver.Perform must not render. A render of a shopping
// screen allocates its nodes, so Perform's allocation count (near zero: an
// amortised log append, a rare crash report) catches a render slipping back
// in.
func TestPerformRendersNothingWhenWarm(t *testing.T) {
	d, actions, now := warmShopping(t)
	emu := d.Emulator()
	renderAllocs := testing.AllocsPerRun(100, func() { emu.Render() })
	if renderAllocs < 2 {
		t.Fatalf("a render allocates %v times; the guard needs it to be visible", renderAllocs)
	}
	i := 0
	performAllocs := testing.AllocsPerRun(1000, func() {
		acts := actions[emu.Current()]
		now += d.Perform(acts[i%len(acts)], now).Latency
		i++
	})
	if performAllocs >= 1 {
		t.Fatalf("warm Driver.Perform allocates %v times per call (a render allocates %v)", performAllocs, renderAllocs)
	}
}

// TestViewRendersNothingWhenWarm guards View the same way: once the book
// has seen every screen, View reads the app's layout table instead of
// rendering, so the actions slice is its only allocation.
func TestViewRendersNothingWhenWarm(t *testing.T) {
	d, actions, now := warmShopping(t)
	emu := d.Emulator()
	renderAllocs := testing.AllocsPerRun(100, func() { emu.Render() })
	if renderAllocs < 2 {
		t.Fatalf("a render allocates %v times; the guard needs it to be visible", renderAllocs)
	}
	i := 0
	viewAllocs := testing.AllocsPerRun(1000, func() {
		d.View()
		acts := actions[emu.Current()]
		now += d.Perform(acts[i%len(acts)], now).Latency
		i++
	})
	if viewAllocs > 1 {
		t.Fatalf("warm Driver.View allocates %v times per call, want only its actions slice (a render allocates %v)", viewAllocs, renderAllocs)
	}
}

// TestViewBlockingKeepsExemplar checks that the book exemplar a View
// records is the unblocked render, whichever driver call saw the screen
// first: blocking removes actions without touching any render.
func TestViewBlockingKeepsExemplar(t *testing.T) {
	a := threeZone()
	emu := device.NewEmulator(0, a, sim.NewRNG(1))
	d := &Driver{emu: emu, book: trace.NewBook(), log: &trace.Log{}, blocks: NewBlockSet()}
	sig := emu.Sig()
	for _, act := range emu.Actions(emu.Render()) {
		if act.Widget >= 0 {
			d.Blocks().BlockWidget(sig, act.Path)
		}
	}
	v := d.View()
	if len(v.Actions) != 1 {
		t.Fatalf("View offers %d actions, want Back alone", len(v.Actions))
	}
	want := trace.NewBook()
	want.Observe(a.Render(emu.Current(), 1))
	if !reflect.DeepEqual(d.book.Lookup(sig), want.Lookup(sig)) {
		t.Fatal("View's blocking reached the book exemplar")
	}
}
