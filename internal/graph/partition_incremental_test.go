package graph

import (
	"math"
	"testing"
)

// TestRegionsMatchFullRecount checks the incremental tables directly: after
// every merge, each live region's weight and each flow equal, bit for bit, a
// full recount over the edge list in global order, no stale pair survives,
// and strongestPair returns what a scan of every flow with the explicit
// tie-break returns.
func TestRegionsMatchFullRecount(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g, _ := ringOfRegions(6, 8, 6, 2, seed)
		r := newRegions(g)
		checkRegions(t, g, r)
		for {
			a, b, c := r.strongestPair()
			if a < 0 || c < 0.02 {
				break
			}
			r.merge(a, b)
			checkRegions(t, g, r)
		}
		for r.foldSmall(4) {
			checkRegions(t, g, r)
		}
	}
}

func checkRegions(t *testing.T, g *Graph, r *regions) {
	t.Helper()
	type pair struct{ a, b int }
	weight := make(map[int]float64)
	flow := make(map[pair]float64)
	for i := range g.Out {
		ri := r.root[i]
		for _, e := range g.Out[i] {
			rj := r.root[e.To]
			weight[ri] += e.P
			if ri != rj {
				flow[pair{min(ri, rj), max(ri, rj)}] += e.P
			}
		}
	}
	entries := 0
	for a, nb := range r.flow {
		if r.members[a] == nil {
			if nb != nil {
				t.Fatalf("dead root %d keeps a flow table", a)
			}
			continue
		}
		if math.Float64bits(r.weight[a]) != math.Float64bits(weight[a]) {
			t.Fatalf("weight[%d] = %v, full recount %v", a, r.weight[a], weight[a])
		}
		for b, f := range nb {
			entries++
			if want := flow[pair{min(a, b), max(a, b)}]; math.Float64bits(f) != math.Float64bits(want) {
				t.Fatalf("flow[%d][%d] = %v, full recount %v", a, b, f, want)
			}
		}
	}
	if entries != 2*len(flow) {
		t.Fatalf("%d flow entries, want %d (both directions of %d pairs)", entries, 2*len(flow), len(flow))
	}

	bestA, bestB, bestC := -1, -1, 0.0
	for k, f := range flow {
		c := r.coupling(k.a, k.b, f)
		if c > bestC || c == bestC && bestA >= 0 && (k.a < bestA || k.a == bestA && k.b < bestB) {
			bestA, bestB, bestC = k.a, k.b, c
		}
	}
	if a, b, c := r.strongestPair(); a != bestA || b != bestB || c != bestC {
		t.Fatalf("strongestPair = (%d, %d, %v), scan of every flow = (%d, %d, %v)", a, b, c, bestA, bestB, bestC)
	}
}
