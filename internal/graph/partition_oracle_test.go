package graph_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"taopt/internal/apps"
	"taopt/internal/graph"
	"taopt/internal/harness"
	"taopt/internal/ui"
)

// equivalenceOptions are the option sets every equivalence check runs
// under: the study's default, a low threshold that merges nearly
// everything with a larger fold, and a high one that merges little.
var equivalenceOptions = []graph.PartitionOptions{
	graph.DefaultPartitionOptions(),
	{MaxCoupling: 0.02, MinGroupSize: 3},
	{MaxCoupling: 0.3, MinGroupSize: 1},
}

func assertMatchesOracle(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	for _, opts := range equivalenceOptions {
		got := graph.OfflinePartition(g, opts)
		want := offlinePartitionOracle(g, opts)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s %+v: incremental partition (%d groups) differs from the full recount (%d groups)",
				name, opts, got.GroupCount(), want.GroupCount())
		}
	}
}

func TestOfflinePartitionMatchesOracleSynthetic(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g, _ := graph.RingOfRegions(4+int(seed), 6+int(seed)%5, 10+int(seed), int(seed)%3+1, seed)
		assertMatchesOracle(t, fmt.Sprintf("ring seed %d", seed), g)
		// No coupling reaches 3 (a flow counts at most both directions'
		// unit weight), so every region forms by folding, where equal
		// flows to two neighbours are common.
		fold := graph.PartitionOptions{MaxCoupling: 3, MinGroupSize: 4}
		if got, want := graph.OfflinePartition(g, fold), offlinePartitionOracle(g, fold); !reflect.DeepEqual(got, want) {
			t.Errorf("ring seed %d, fold only: incremental partition differs from the full recount", seed)
		}
	}
}

// baselineGraph is the transition graph subspaceOverlap partitions: every
// instance trace of one baseline run, merged.
func baselineGraph(t *testing.T, appName, tool string, minutes int, seed int64) *graph.Graph {
	t.Helper()
	res, err := harness.Run(harness.RunConfig{
		App:      apps.MustLoad(appName),
		Tool:     tool,
		Setting:  harness.BaselineParallel,
		Duration: time.Duration(minutes) * time.Minute,
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder()
	for _, inst := range res.Instances {
		b.AddTrace(inst.Trace)
	}
	return b.Graph()
}

func TestOfflinePartitionMatchesOracleCatalog(t *testing.T) {
	tools := []string{"monkey", "ape", "wctester"}
	for i, name := range apps.Names() {
		tool := tools[i%len(tools)]
		assertMatchesOracle(t, name+"/"+tool, baselineGraph(t, name, tool, 5, int64(i+1)))
	}
}

// TestOfflinePartitionMatchesOracleLong checks the two largest graphs of a
// 60-minute grid, where the recount saves the most.
func TestOfflinePartitionMatchesOracleLong(t *testing.T) {
	if testing.Short() {
		t.Skip("60-minute baselines")
	}
	for _, c := range []struct{ app, tool string }{{"Quizlet", "ape"}, {"Zedge", "wctester"}} {
		assertMatchesOracle(t, c.app+"/"+c.tool, baselineGraph(t, c.app, c.tool, 60, 1))
	}
}

// offlinePartitionOracle is OfflinePartition as it was before the
// incremental recount, kept verbatim as the equivalence oracle: it rebuilds
// every region table from all edges and sorts every key on each round.
//
// It computes a conservative min-conductance partition of g by
// agglomerative merging: every vertex starts alone, and in each round the two
// regions with the strongest normalised mutual transition probability merge;
// merging stops once every remaining inter-region coupling is below
// MaxCoupling. The exact MC-GPP optimum is NP-hard (Section 4.1); this greedy
// heuristic is the study instrument, not the contribution.
func offlinePartitionOracle(g *graph.Graph, opts graph.PartitionOptions) graph.Partition {
	n := g.N()
	if n == 0 {
		return graph.Partition{Assign: []int{}}
	}

	parent := make([]int, n)
	size := make([]int, n)
	for i := range parent {
		parent[i] = i
		size[i] = 1
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if size[ra] < size[rb] {
			ra, rb = rb, ra
		}
		parent[rb] = ra
		size[ra] += size[rb]
	}

	// regionTables recomputes per-root aggregate flow and weight from the
	// immutable edge list. O(E) per call; the graphs under study are small
	// (hundreds of screens), so recomputation beats incremental bookkeeping
	// for clarity and correctness.
	type pair struct{ a, b int }
	regionTables := func() (flow map[pair]float64, weight map[int]float64) {
		flow = make(map[pair]float64)
		weight = make(map[int]float64)
		for i := range g.Out {
			ri := find(i)
			for _, e := range g.Out[i] {
				rj := find(e.To)
				weight[ri] += e.P
				if ri != rj {
					k := pair{ri, rj}
					if rj < ri {
						k = pair{rj, ri}
					}
					flow[k] += e.P
				}
			}
		}
		return flow, weight
	}

	coupling := func(f float64, wa, wb float64) float64 {
		den := wa
		if wb < den {
			den = wb
		}
		if den <= 0 {
			return 0
		}
		return f / den
	}

	for {
		flow, weight := regionTables()
		bestA, bestB, bestC := -1, -1, 0.0
		keys := make([]pair, 0, len(flow))
		for k := range flow {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].a != keys[j].a {
				return keys[i].a < keys[j].a
			}
			return keys[i].b < keys[j].b
		})
		for _, k := range keys {
			if c := coupling(flow[k], weight[k.a], weight[k.b]); c > bestC {
				bestA, bestB, bestC = k.a, k.b, c
			}
		}
		if bestA < 0 || bestC < opts.MaxCoupling {
			break
		}
		union(bestA, bestB)
	}

	// Fold tiny groups into their strongest neighbour.
	if opts.MinGroupSize > 1 {
		for {
			flow, _ := regionTables()
			merged := false
			for i := 0; i < n && !merged; i++ {
				r := find(i)
				if r != i || size[r] >= opts.MinGroupSize {
					continue
				}
				bestB, bestF := -1, 0.0
				keys := make([]pair, 0, len(flow))
				for k := range flow {
					keys = append(keys, k)
				}
				sort.Slice(keys, func(x, y int) bool {
					if keys[x].a != keys[y].a {
						return keys[x].a < keys[y].a
					}
					return keys[x].b < keys[y].b
				})
				for _, k := range keys {
					other := -1
					if k.a == r {
						other = k.b
					} else if k.b == r {
						other = k.a
					}
					if other >= 0 && flow[k] > bestF {
						bestB, bestF = other, flow[k]
					}
				}
				if bestB >= 0 {
					union(r, bestB)
					merged = true
				}
			}
			if !merged {
				break
			}
		}
	}

	// Materialise groups.
	byRoot := make(map[int][]int)
	for i := 0; i < n; i++ {
		byRoot[find(i)] = append(byRoot[find(i)], i)
	}
	roots := make([]int, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return byRoot[roots[i]][0] < byRoot[roots[j]][0] })
	p := graph.Partition{Assign: make([]int, n)}
	for gi, r := range roots {
		vs := byRoot[r]
		sort.Ints(vs)
		p.Groups = append(p.Groups, vs)
		for _, v := range vs {
			p.Assign[v] = gi
		}
	}
	return p
}

// TestOfflinePartitionFoldTieGoesToSmallestRoot hangs a vertex off two
// 3-cliques with one edge each and none back, so its flows to them are equal
// and too weak to merge, and the fold's tie-break decides where it goes.
func TestOfflinePartitionFoldTieGoesToSmallestRoot(t *testing.T) {
	b := graph.NewBuilder()
	for _, base := range []int{10, 20} {
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if i != j {
					b.Add(ui.Signature(base+i), ui.Signature(base+j))
				}
			}
		}
	}
	b.Add(ui.Signature(1), ui.Signature(10))
	b.Add(ui.Signature(1), ui.Signature(20))
	g := b.Graph()
	opts := graph.PartitionOptions{MaxCoupling: 0.6, MinGroupSize: 2}
	got, want := graph.OfflinePartition(g, opts), offlinePartitionOracle(g, opts)
	if want.GroupCount() != 2 {
		t.Fatalf("oracle groups = %v, want the two cliques", want.Groups)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fold tie: got %v, want %v", got.Groups, want.Groups)
	}
}
