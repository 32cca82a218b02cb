package coverage_test

import (
	"math"
	"testing"

	"taopt/internal/coverage"
	"taopt/internal/metrics"
	"taopt/internal/sim"
)

// TestGroupMatchesMembers drives random adds into random members of a
// growing group and checks, against a map model and against the set
// operations over the members, the union count, every pair's intersection
// and union sizes, and the group AJS bit for bit.
func TestGroupMatchesMembers(t *testing.T) {
	rng := sim.NewRNG(11)
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(200)
		g := coverage.NewGroup(n)
		var members []*coverage.Set
		var model []map[int]bool
		for step := 0; step < 300; step++ {
			if len(members) == 0 || rng.Intn(40) == 0 {
				members = append(members, g.NewMember())
				model = append(model, make(map[int]bool))
			}
			i, id := rng.Intn(len(members)), rng.Intn(n)
			if got, want := members[i].Add(id), !model[i][id]; got != want {
				t.Fatalf("trial %d: Add(%d) on member %d = %v, want %v", trial, id, i, got, want)
			}
			model[i][id] = true
			if step%23 == 0 {
				checkGroup(t, g, members, model)
			}
		}
		checkGroup(t, g, members, model)
	}
}

func checkGroup(t *testing.T, g *coverage.Group, members []*coverage.Set, model []map[int]bool) {
	t.Helper()
	if g.Len() != len(members) {
		t.Fatalf("Len = %d, want %d", g.Len(), len(members))
	}
	union := make(map[int]bool)
	for _, m := range model {
		for id := range m {
			union[id] = true
		}
	}
	if g.Count() != len(union) || g.Count() != coverage.UnionOf(members).Count() {
		t.Fatalf("union Count = %d, model %d, UnionOf %d", g.Count(), len(union), coverage.UnionOf(members).Count())
	}
	for i := range members {
		for j := range members {
			if i == j {
				continue
			}
			inter, un := g.Pair(i, j)
			wantInter := 0
			for id := range model[i] {
				if model[j][id] {
					wantInter++
				}
			}
			wantUnion := len(model[i]) + len(model[j]) - wantInter
			if inter != wantInter || un != wantUnion ||
				inter != members[i].IntersectCount(members[j]) || un != members[i].UnionCount(members[j]) {
				t.Fatalf("Pair(%d, %d) = (%d, %d), want (%d, %d)", i, j, inter, un, wantInter, wantUnion)
			}
		}
	}
	if got, want := metrics.GroupAJS(g), metrics.AJS(members); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("GroupAJS = %v, AJS = %v", got, want)
	}
}

func TestGroupMemberUnionWithPanics(t *testing.T) {
	g := coverage.NewGroup(10)
	m := g.NewMember()
	other := coverage.NewSet(10)
	other.Add(3)
	defer func() {
		if recover() == nil {
			t.Fatal("UnionWith on a group member must panic")
		}
	}()
	m.UnionWith(other)
}

func TestGroupCloneLeavesGroup(t *testing.T) {
	g := coverage.NewGroup(10)
	m := g.NewMember()
	m.Add(1)
	c := m.Clone()
	c.Add(2)
	c.UnionWith(coverage.NewSet(10))
	if g.Count() != 1 || m.Has(2) {
		t.Fatalf("a clone's adds reached the group: Count = %d", g.Count())
	}
}
