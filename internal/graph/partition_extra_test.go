package graph

import (
	"testing"

	"taopt/internal/sim"
	"taopt/internal/ui"
)

// ringOfRegions builds r regions of k vertices each; each region is a dense
// random digraph and consecutive regions share `cross` observed transitions.
func ringOfRegions(r, k, internal, cross int, seed int64) (*Graph, [][]int) {
	rng := sim.NewRNG(seed)
	b := NewBuilder()
	for reg := 0; reg < r; reg++ {
		base := reg * k
		for n := 0; n < internal*k; n++ {
			i := base + rng.Intn(k)
			j := base + rng.Intn(k)
			if i != j {
				b.Add(sig(i), sig(j))
			}
		}
		next := ((reg + 1) % r) * k
		for n := 0; n < cross; n++ {
			b.Add(sig(base), sig(next))
		}
	}
	g := b.Graph()
	regions := make([][]int, r)
	for reg := 0; reg < r; reg++ {
		for i := 0; i < k; i++ {
			if v, ok := g.VertexOf(sig(reg*k + i)); ok {
				regions[reg] = append(regions[reg], v)
			}
		}
	}
	return g, regions
}

func TestOfflinePartitionRecoversRing(t *testing.T) {
	g, regions := ringOfRegions(6, 12, 30, 1, 3)
	p := OfflinePartition(g, DefaultPartitionOptions())
	if p.GroupCount() != 6 {
		t.Fatalf("groups = %d, want 6", p.GroupCount())
	}
	for ri, reg := range regions {
		want := p.Assign[reg[0]]
		for _, v := range reg {
			if p.Assign[v] != want {
				t.Fatalf("region %d split across groups", ri)
			}
		}
	}
}

func TestOfflinePartitionMinGroupFold(t *testing.T) {
	// A singleton vertex hanging off a clique must be folded into it.
	b := NewBuilder()
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i != j {
				for n := 0; n < 10; n++ {
					b.Add(sig(i), sig(j))
				}
			}
		}
	}
	b.Add(sig(0), sig(99))
	b.Add(sig(99), sig(0))
	g := b.Graph()
	p := OfflinePartition(g, PartitionOptions{MaxCoupling: 0.3, MinGroupSize: 2})
	v99, _ := g.VertexOf(sig(99))
	v0, _ := g.VertexOf(sig(0))
	if p.Assign[v99] != p.Assign[v0] {
		t.Fatalf("singleton not folded: %v", p.Groups)
	}
}

func TestOfflinePartitionSingleVertex(t *testing.T) {
	b := NewBuilder()
	b.Add(sig(1), sig(1))
	p := OfflinePartition(b.Graph(), DefaultPartitionOptions())
	if p.GroupCount() != 1 {
		t.Fatalf("groups = %d", p.GroupCount())
	}
}

func TestGraphVertexOfUnknown(t *testing.T) {
	b := NewBuilder()
	b.Add(sig(1), sig(2))
	g := b.Graph()
	if _, ok := g.VertexOf(ui.Signature(0xdead)); ok {
		t.Fatal("unknown signature resolved")
	}
}

func TestConductanceAsymmetry(t *testing.T) {
	// One-way coupling: G1 flows into G2 but not back — the paper's second
	// loosely-coupled scenario (φ(G1,G2) ≫ 0, φ(G2,G1) ≈ 0).
	b := NewBuilder()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				b.Add(sig(i), sig(j))
				b.Add(sig(10+i), sig(10+j))
			}
		}
	}
	for n := 0; n < 12; n++ {
		b.Add(sig(0), sig(10)) // heavy one-way edge
	}
	g := b.Graph()
	var g1, g2 []int
	for i := 0; i < 4; i++ {
		v1, _ := g.VertexOf(sig(i))
		v2, _ := g.VertexOf(sig(10 + i))
		g1 = append(g1, v1)
		g2 = append(g2, v2)
	}
	forward := g.ConductanceSets(g1, g2)
	backward := g.ConductanceSets(g2, g1)
	if !(forward > 10*backward) {
		t.Fatalf("expected strong asymmetry: forward=%v backward=%v", forward, backward)
	}
	if backward != 0 {
		t.Fatalf("no reverse edges exist, backward=%v", backward)
	}
}

var partitionSink Partition

// BenchmarkOfflinePartition partitions a 1000-vertex ring of 50 regions,
// about the size of a 60-minute baseline's merged transition graph.
func BenchmarkOfflinePartition(b *testing.B) {
	g, _ := ringOfRegions(50, 20, 5, 2, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partitionSink = OfflinePartition(g, DefaultPartitionOptions())
	}
}
