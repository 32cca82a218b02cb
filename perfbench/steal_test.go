package main

import "testing"

func TestParseSteal(t *testing.T) {
	stat := "cpu  544074 0 63384 490400 303 0 7050 32108 0 0\n" +
		"cpu0 272000 0 31000 245000 150 0 3500 16000 0 0\n" +
		"cpu1 272074 0 32384 245400 153 0 3550 16108 0 0\n" +
		"intr 123\nctxt 456\n"
	got, err := parseSteal(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 321.08 / 2; !near(got, want) {
		t.Fatalf("steal per CPU = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "cpu  1 2 3\ncpu0 1 2 3\n", "cpu  1 2 3 4 5 6 7 8\n"} {
		if _, err := parseSteal(bad); err == nil {
			t.Errorf("parseSteal(%q) succeeded", bad)
		}
	}
}

func TestMeterMeasuresAnInterval(t *testing.T) {
	m, err := startMeter()
	if err != nil {
		t.Fatal(err)
	}
	x := 0
	for i := 0; i < 1e6; i++ {
		x += i
	}
	wall, stolen, cpu, err := m.stop()
	if err != nil || wall <= 0 || stolen < 0 || cpu < 0 || x == 0 {
		t.Fatalf("meter: wall %v stolen %v cpu %v err %v", wall, stolen, cpu, err)
	}
}
