package graph

import (
	"slices"

	"taopt/internal/trace"
)

// Partition is a disjoint grouping of a graph's vertices into subspaces.
type Partition struct {
	// Groups holds vertex indexes per subspace, each sorted ascending;
	// groups are ordered by their smallest vertex.
	Groups [][]int
	// Assign maps vertex -> group index.
	Assign []int
}

// GroupCount returns the number of subspaces.
func (p Partition) GroupCount() int { return len(p.Groups) }

// PartitionOptions tunes the offline partitioner.
type PartitionOptions struct {
	// MaxCoupling is the flow threshold below which two regions count as
	// loosely coupled and are NOT merged. Higher values merge more.
	MaxCoupling float64
	// MinGroupSize: groups smaller than this are folded into their most
	// coupled neighbour at the end (singleton UI states are rarely a
	// functionality of their own).
	MinGroupSize int
}

// DefaultPartitionOptions matches the conservative setting described in
// Section 3.1: "requiring both low inter-region transition probabilities and
// high internal cohesion before partitioning".
func DefaultPartitionOptions() PartitionOptions {
	return PartitionOptions{MaxCoupling: 0.08, MinGroupSize: 2}
}

// OfflinePartition computes a conservative min-conductance partition of g by
// agglomerative merging: every vertex starts alone, and in each round the two
// regions with the strongest normalised mutual transition probability merge;
// merging stops once every remaining inter-region coupling is below
// MaxCoupling. The exact MC-GPP optimum is NP-hard (Section 4.1); this greedy
// heuristic is the study instrument, not the contribution.
func OfflinePartition(g *Graph, opts PartitionOptions) Partition {
	if g.N() == 0 {
		return Partition{Assign: []int{}}
	}
	t := newRegions(g)
	for {
		a, b, c := t.strongestPair()
		if a < 0 || c < opts.MaxCoupling {
			break
		}
		t.merge(a, b)
	}
	// Fold tiny groups into their strongest neighbour.
	if opts.MinGroupSize > 1 {
		for t.foldSmall(opts.MinGroupSize) {
		}
	}
	return t.partition()
}

// regions is the partitioner's state: vertices grouped into regions, each
// region's weight (the summed P of its members' out-edges) and the flow
// between every pair of regions joined by an edge (the summed P of the edges
// between them, both ways). A merge recounts only the merged region: every
// other region's weight and every flow between two other regions keep the
// same terms.
//
// Each recount adds its terms in global edge order — source vertex
// ascending, then Out order — which is the order a full pass over the edge
// list adds them in, so every float sum is bit-identical to one.
type regions struct {
	g *Graph
	// root maps vertex -> its region's root; members maps root -> member
	// vertices ascending (nil for a vertex that is no root).
	root    []int
	members [][]int
	weight  []float64
	// flow[a][b] == flow[b][a] is the flow between roots a and b; only
	// pairs joined by an edge have an entry.
	flow []map[int]float64

	// best[a] is root a's strongest pair (a, b) with b > a: the highest
	// coupling, ties going to the smallest b.
	best []strongest

	// Edges numbered in global order: Out[v][k] is edge first[v]+k, with
	// source src[id] and probability p[id].
	first []int
	src   []int
	p     []float64
	// in[v] lists the edges into v, ascending.
	in   [][]int
	keys []uint64 // recount scratch
}

func newRegions(g *Graph) *regions {
	n := g.N()
	t := &regions{
		g:       g,
		root:    make([]int, n),
		members: make([][]int, n),
		weight:  make([]float64, n),
		flow:    make([]map[int]float64, n),
		best:    make([]strongest, n),
		first:   make([]int, n),
		in:      make([][]int, n),
	}
	for v := range n {
		t.root[v] = v
		t.members[v] = []int{v}
		t.flow[v] = make(map[int]float64)
		t.first[v] = len(t.src)
		for _, e := range g.Out[v] {
			t.in[e.To] = append(t.in[e.To], len(t.src))
			t.src = append(t.src, v)
			t.p = append(t.p, e.P)
		}
	}
	for v := range n {
		t.recount(v)
	}
	for v := range n {
		t.refreshBest(v)
	}
	return t
}

// strongest is a root's strongest pair: partner root b (-1 for none) and
// the pair's coupling c.
type strongest struct {
	b int
	c float64
}

// recount recomputes root r's weight and its flow to every other region,
// and mirrors each flow into the neighbour's table. The region's boundary
// edges are its members' out-edges to non-members and their in-edges from
// non-members; sorting them by edge number adds each flow's terms in global
// edge order.
func (t *regions) recount(r int) {
	keys := t.keys[:0]
	w := 0.0
	for _, v := range t.members[r] {
		for k, e := range t.g.Out[v] {
			w += e.P
			if x := t.root[e.To]; x != r {
				keys = append(keys, uint64(t.first[v]+k)<<32|uint64(x))
			}
		}
		for _, id := range t.in[v] {
			if x := t.root[t.src[id]]; x != r {
				keys = append(keys, uint64(id)<<32|uint64(x))
			}
		}
	}
	t.weight[r] = w
	slices.Sort(keys)
	flow := t.flow[r]
	clear(flow)
	for _, key := range keys {
		flow[int(uint32(key))] += t.p[key>>32]
	}
	for x, f := range flow {
		t.flow[x][r] = f
	}
	t.keys = keys
}

// merge joins roots a and b. The larger region's root survives, a on a
// tie. Every region that bordered a still borders the merged one, so
// recounting it overwrites all of a's old mirrored flows; only b's need
// deleting.
func (t *regions) merge(a, b int) {
	if len(t.members[a]) < len(t.members[b]) {
		a, b = b, a
	}
	for _, v := range t.members[b] {
		t.root[v] = a
	}
	for x := range t.flow[b] {
		delete(t.flow[x], b)
	}
	t.members[a] = mergeSorted(t.members[a], t.members[b])
	t.members[b], t.flow[b], t.weight[b] = nil, nil, 0
	t.recount(a)

	// Only pairs with a changed coupling, and a root whose strongest pair
	// named a or b may need another.
	t.best[b] = strongest{b: -1}
	t.refreshBest(a)
	for x, f := range t.flow[a] {
		switch {
		case t.best[x].b == a || t.best[x].b == b:
			t.refreshBest(x)
		case x < a:
			t.offer(x, a, f)
		}
	}
}

// strongestPair returns the pair of regions with the highest coupling,
// ties going to the smallest (a, b), and that coupling; a is -1 when no pair
// has a positive coupling. Scanning roots ascending with a strict > keeps
// the smallest a among equal couplings, and best[a] already holds the
// smallest b.
func (t *regions) strongestPair() (a, b int, c float64) {
	a, b = -1, -1
	for x, p := range t.best {
		if p.b >= 0 && p.c > c {
			a, b, c = x, p.b, p.c
		}
	}
	return a, b, c
}

// coupling is the flow f between roots a and b over the smaller of their
// weights, or 0 when that weight is not positive.
func (t *regions) coupling(a, b int, f float64) float64 {
	den := min(t.weight[a], t.weight[b])
	if den <= 0 {
		return 0
	}
	return f / den
}

// offer makes (a, b), a < b, root a's strongest pair if its coupling is
// higher than the current one's, or equal with a smaller b. A pair with
// no positive coupling is never a candidate.
func (t *regions) offer(a, b int, f float64) {
	p := &t.best[a]
	if c := t.coupling(a, b, f); c > p.c || c == p.c && p.b >= 0 && b < p.b {
		p.b, p.c = b, c
	}
}

// refreshBest recomputes root a's strongest pair from its flows.
func (t *regions) refreshBest(a int) {
	t.best[a] = strongest{b: -1}
	for b, f := range t.flow[a] {
		if b > a {
			t.offer(a, b, f)
		}
	}
}

// foldSmall merges the smallest-rooted region below minSize that has a
// neighbour into the neighbour it has the highest flow with, ties going to
// the smallest neighbour root. It reports whether it merged.
func (t *regions) foldSmall(minSize int) bool {
	for r, mem := range t.members {
		if mem == nil || len(mem) >= minSize {
			continue
		}
		bestX, bestF := -1, 0.0
		for x, f := range t.flow[r] {
			if f > bestF || f == bestF && bestX >= 0 && x < bestX {
				bestX, bestF = x, f
			}
		}
		if bestX >= 0 {
			t.merge(r, bestX)
			return true
		}
	}
	return false
}

// partition materialises the regions, ordered by their smallest vertex.
func (t *regions) partition() Partition {
	p := Partition{Assign: make([]int, len(t.root))}
	for v, r := range t.root {
		if mem := t.members[r]; mem[0] == v {
			for _, u := range mem {
				p.Assign[u] = len(p.Groups)
			}
			p.Groups = append(p.Groups, mem)
		}
	}
	return p
}

func mergeSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// MaxPairwiseConductance returns the maximum φ(Gi, Gj) over all ordered pairs
// of the partition's groups — the MC-GPP objective of Eq. 3.
func MaxPairwiseConductance(g *Graph, p Partition) float64 {
	best := 0.0
	for i := range p.Groups {
		for j := range p.Groups {
			if i == j {
				continue
			}
			if c := g.ConductanceSets(p.Groups[i], p.Groups[j]); c > best {
				best = c
			}
		}
	}
	return best
}

// Explorers returns, per group of p, the indexes of the logs that explored
// it (Section 3.1's "Measuring overlaps of UI subspace exploration"). A log
// explores a group if it visited at least two of its screens, or all of a
// smaller group: touching a single screen of a region is passing by, not
// exploring. A visit is the destination of any event that is not enforced,
// launches included; screens outside g are ignored.
func Explorers(g *Graph, p Partition, logs []*trace.Log) []map[int]bool {
	visited := make([][]bool, len(logs))
	for i, l := range logs {
		visited[i] = make([]bool, g.N())
		for _, ev := range l.Events() {
			if ev.Enforced {
				continue
			}
			if v, ok := g.VertexOf(ev.To); ok {
				visited[i][v] = true
			}
		}
	}
	explored := make([]map[int]bool, len(p.Groups))
	for gi, grp := range p.Groups {
		need := min(2, len(grp))
		per := make(map[int]bool)
		for i, seen := range visited {
			count := 0
			for _, v := range grp {
				if seen[v] {
					count++
					if count >= need {
						per[i] = true
						break
					}
				}
			}
		}
		explored[gi] = per
	}
	return explored
}
