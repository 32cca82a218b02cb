package coverage

// Group keeps the union of its member sets and every pair's intersection
// count up to date as members grow, so a run's per-sample union coverage and
// AJS (Eq. 1) read counts instead of scanning bitsets: a new id in a member
// costs O(members), a sample O(members²) integer reads. Members join empty,
// in order, and grow only through Add.
type Group struct {
	n       int
	members []*Set
	union   *Set
	// inter[j][i] is |members[i] ∩ members[j]| for i < j.
	inter [][]int
}

// NewGroup returns an empty group over a universe of n methods.
func NewGroup(n int) *Group { return &Group{n: n, union: NewSet(n)} }

// NewMember returns an empty set over the group's universe, joined to the
// group as its last member.
func (g *Group) NewMember() *Set {
	s := NewSet(g.n)
	s.group, s.member = g, len(g.members)
	g.members = append(g.members, s)
	g.inter = append(g.inter, make([]int, s.member))
	return s
}

// Len returns the number of members.
func (g *Group) Len() int { return len(g.members) }

// Count returns the size of the members' union.
func (g *Group) Count() int { return g.union.count }

// Pair returns the intersection and union sizes of members i and j, i != j.
func (g *Group) Pair(i, j int) (inter, union int) {
	if i > j {
		i, j = j, i
	}
	inter = g.inter[j][i]
	return inter, g.members[i].count + g.members[j].count - inter
}

// added records that id just joined member s.
func (g *Group) added(s *Set, id int) {
	g.union.Add(id)
	w, b := id/64, uint64(1)<<(id%64)
	for j, o := range g.members {
		if o == s || o.bits[w]&b == 0 {
			continue
		}
		if j < s.member {
			g.inter[s.member][j]++
		} else {
			g.inter[j][s.member]++
		}
	}
}
