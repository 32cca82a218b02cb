package ui_test

import (
	"hash/fnv"
	"testing"

	"taopt/internal/app"
	"taopt/internal/apps"
	"taopt/internal/ui"
)

// mapPaths is the map-based path multiset Similarity was first written
// with: hash/fnv per node, keyed by path hash.
func mapPaths(root *ui.Node) map[uint64]int {
	out := make(map[uint64]int)
	var rec func(n *ui.Node, prefix uint64)
	rec = func(n *ui.Node, prefix uint64) {
		h := fnv.New64a()
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(prefix >> (8 * i))
		}
		h.Write(buf[:])
		h.Write([]byte(n.Class))
		h.Write([]byte{'#'})
		h.Write([]byte(n.ResourceID))
		key := h.Sum64()
		out[key]++
		for _, ch := range n.Children {
			rec(ch, key)
		}
	}
	rec(root, 0)
	return out
}

// mapDice is the reference Dice coefficient over mapPaths multisets.
func mapDice(pa, pb map[uint64]int) float64 {
	var inter, total int
	for k, ca := range pa {
		total += ca
		inter += min(ca, pb[k])
	}
	for _, cb := range pb {
		total += cb
	}
	return float64(2*inter) / float64(total)
}

// TestDiceMatchesSimilarity checks, over pairs of catalog exemplars, that
// Dice of memoisable PathSets is bit-for-bit Similarity, and both are the
// map-based reference. Each screen meets its next three neighbours (often
// the same functionality) and one screen half the app away.
func TestDiceMatchesSimilarity(t *testing.T) {
	auts := []*app.App{app.MotivatingExample()}
	for _, name := range apps.Names() {
		auts = append(auts, apps.MustLoad(name))
	}
	var pairs, partial int
	for _, a := range auts {
		n := len(a.Screens)
		roots := make([]*ui.Node, n)
		sets := make([]ui.PathSet, n)
		refs := make([]map[uint64]int, n)
		for i := range a.Screens {
			roots[i] = a.Render(app.ScreenID(i), 0).Root
			sets[i] = ui.Paths(roots[i])
			refs[i] = mapPaths(roots[i])
		}
		for i := 0; i < n; i++ {
			for _, j := range []int{(i + 1) % n, (i + 2) % n, (i + 3) % n, (i + n/2) % n} {
				dice := ui.Dice(sets[i], sets[j])
				sim := ui.Similarity(roots[i], roots[j])
				ref := mapDice(refs[i], refs[j])
				if dice != sim || sim != ref {
					t.Fatalf("%s screens %d,%d: Dice %v, Similarity %v, reference %v", a.Name, i, j, dice, sim, ref)
				}
				pairs++
				if dice > 0 && dice < 1 {
					partial++
				}
			}
		}
	}
	if partial == 0 {
		t.Fatalf("no pair among %d had a similarity strictly between 0 and 1", pairs)
	}
}

// TestPathsEmpty pins the nil cases Similarity relies on.
func TestPathsEmpty(t *testing.T) {
	if ui.Paths(nil) != nil {
		t.Fatal("Paths(nil) must be empty")
	}
	if got := ui.Dice(nil, nil); got != 1 {
		t.Fatalf("Dice of two empty sets = %v, want 1", got)
	}
	leaf := ui.Paths(&ui.Node{Class: "c"})
	if got := ui.Dice(leaf, nil); got != 0 {
		t.Fatalf("Dice against an empty set = %v, want 0", got)
	}
}
