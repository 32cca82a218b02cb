package main

import (
	"bytes"
	"compress/gzip"
	"os"
	"testing"
)

// testdata/cpu.pprof is a runtime/pprof CPU profile of three short
// taopt-duration runs of Filters For Selfie. `go tool pprof -raw` reads it
// as 102 stacks holding 104 ticks of 10ms; the expected shares below count
// those ticks per innermost taopt/internal package.
func TestParseProfileFixture(t *testing.T) {
	data, err := os.ReadFile("testdata/cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	p, err := ParseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.SampleTypes) != 2 || p.SampleTypes[1] != "cpu/nanoseconds" {
		t.Fatalf("sample types = %v", p.SampleTypes)
	}
	var ticks, ns int64
	for _, s := range p.Samples {
		ticks += s.Values[0]
		ns += s.Values[1]
	}
	if len(p.Samples) != 102 || ticks != 104 || ns != 1_040_000_000 {
		t.Fatalf("got %d stacks, %d ticks, %dns; want 102, 104, 1.04e9", len(p.Samples), ticks, ns)
	}

	shares := p.FoldByPackage()
	want := map[string]int{"app": 51, "ui": 30, "core": 7, "device": 7, "runtime": 6, "toller": 1, "tools": 1, "trace": 1}
	var sum float64
	for pkg, n := range want {
		if got := shares[pkg]; !near(got, float64(n)/104) {
			t.Errorf("share of %s = %v, want %d/104", pkg, got, n)
		}
	}
	for _, v := range shares {
		sum += v
	}
	if !near(sum, 1) || len(shares) != len(want) {
		t.Errorf("shares %v sum to %v over %d packages", shares, sum, len(shares))
	}
}

// The decoder reads uncompressed profiles too, and reports damage instead of
// panicking on it.
func TestParseProfileRawAndDamaged(t *testing.T) {
	data, err := os.ReadFile("testdata/cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	p, err := ParseProfile(raw.Bytes())
	if err != nil || len(p.Samples) != 102 {
		t.Fatalf("raw profile: %d samples, err %v", len(p.Samples), err)
	}
	for _, cut := range []int{1, 7, raw.Len() / 2, raw.Len() - 1} {
		if _, err := ParseProfile(raw.Bytes()[:cut]); err == nil {
			t.Errorf("profile cut at %d of %d bytes parsed without error", cut, raw.Len())
		}
	}
}

func TestPackageOfFoldsSubpackages(t *testing.T) {
	p := &Profile{
		Locations: map[uint64][]uint64{1: {1}, 2: {2, 3}, 3: {4}},
		Functions: map[uint64]string{
			1: "runtime.mallocgc",
			2: "taopt/internal/bus/wire.(*Transport).Publish", // inlined into 3
			3: "taopt/internal/harness.(*runner).step",
			4: "main.main",
		},
	}
	if got := p.packageOf(ProfileSample{Locations: []uint64{1, 2, 3}}); got != "bus" {
		t.Errorf("package of a wire frame = %q, want bus", got)
	}
	if got := p.packageOf(ProfileSample{Locations: []uint64{1, 3}}); got != "runtime" {
		t.Errorf("package of a stack with no taopt frame = %q, want runtime", got)
	}
}
