package main

import (
	"math"
	"testing"
)

// The expected quartiles are Python's statistics.quantiles(data, n=4), the
// computation the spread of a metric is judged by.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	for _, tc := range []struct {
		data          []float64
		q1, med, q3   float64
		min, max      float64
		wantN         int
		wantSpreadPct float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 1, 10, 10, 100},
		{[]float64{1, 2}, 0.75, 1.5, 2.25, 1, 2, 2, 100},
		{[]float64{3.5, 1.25, 9, 4, 4}, 2.375, 4, 6.5, 1.25, 9, 5, 103.125},
		{[]float64{7}, 7, 7, 7, 7, 7, 1, 0},
	} {
		s := Summarize(tc.data)
		if !near(s.Q1, tc.q1) || !near(s.Median, tc.med) || !near(s.Q3, tc.q3) ||
			s.Min != tc.min || s.Max != tc.max || s.N != tc.wantN {
			t.Errorf("Summarize(%v) = %+v, want q1 %v median %v q3 %v", tc.data, s, tc.q1, tc.med, tc.q3)
		}
		if got := 100 * s.Spread(); !near(got, tc.wantSpreadPct) {
			t.Errorf("Spread(%v) = %v%%, want %v%%", tc.data, got, tc.wantSpreadPct)
		}
	}
	if s := Summarize(nil); s != (Summary{}) {
		t.Errorf("Summarize(nil) = %+v, want zero", s)
	}
}

func TestSummarizeLeavesInputUnsorted(t *testing.T) {
	data := []float64{3, 1, 2}
	Summarize(data)
	if data[0] != 3 || data[1] != 1 || data[2] != 2 {
		t.Fatalf("Summarize reordered its input: %v", data)
	}
}

// A tail percentile is reported only with at least ten samples beyond it.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	for _, tc := range []struct {
		n     int
		wantP float64
		ok    bool
	}{
		{1000, 0.99, true},
		{999, 0.95, true},
		{200, 0.95, true},
		{199, 0.90, true},
		{100, 0.90, true},
		{99, 0, false},
	} {
		v, p, ok := Tail(seq(tc.n))
		if ok != tc.ok || p != tc.wantP {
			t.Errorf("Tail(%d samples) = p%v ok=%v, want p%v ok=%v", tc.n, p, ok, tc.wantP, tc.ok)
			continue
		}
		if ok {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("Tail(%d samples) = %v with %d samples beyond it", tc.n, v, beyond)
			}
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	if got := Percentile([]float64{40, 10, 30, 20}, 0.5); got != 25 {
		t.Errorf("median of 10..40 = %v, want 25", got)
	}
	if got := Percentile([]float64{5}, 0.9); got != 5 {
		t.Errorf("p90 of one sample = %v, want it", got)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
