package ui

import (
	"slices"
	"sort"
)

// Similarity computes the tree similarity of two abstracted UI hierarchies in
// [0, 1]. It follows the spirit of the comparator used by CountIn in
// Algorithm 1 (tree similarity of abstract hierarchies, after [66]): each
// hierarchy is decomposed into the multiset of its abstract root-to-node
// paths, and the similarity is the Dice coefficient of the two multisets.
//
// Dice over path multisets is cheap (linear in tree size), symmetric, equals
// 1 exactly for structurally identical trees regardless of text, and degrades
// smoothly when list rows are added/removed — the dominant source of benign
// structural variation in mobile UIs.
func Similarity(a, b *Node) float64 {
	if a == nil || b == nil {
		if a == b {
			return 1
		}
		return 0
	}
	return Dice(Paths(a), Paths(b))
}

// PathSet is the multiset of a hierarchy's abstract root-to-node paths: the
// hash of each distinct path with its number of occurrences, sorted by hash.
// A caller comparing one hierarchy against many builds it once with Paths
// and compares with Dice.
type PathSet []PathCount

// PathCount is one distinct path of a PathSet.
type PathCount struct {
	Hash  uint64
	Count int
}

// FNV-1a parameters; the path hashes are 64-bit FNV-1a.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// Paths returns the path multiset of the hierarchy rooted at root (empty
// for nil). Each path's hash is the FNV-1a of its parent path's hash (8
// bytes, little-endian; 0 for the root) followed by "class#resourceID".
func Paths(root *Node) PathSet {
	if root == nil {
		return nil
	}
	hashes := make([]uint64, 0, 16)
	var rec func(n *Node, prefix uint64)
	rec = func(n *Node, prefix uint64) {
		h := uint64(fnvOffset64)
		for i := 0; i < 8; i++ {
			h ^= (prefix >> (8 * i)) & 0xff
			h *= fnvPrime64
		}
		h = fnvString(h, n.Class)
		h = fnvString(h, "#")
		h = fnvString(h, n.ResourceID)
		hashes = append(hashes, h)
		for _, ch := range n.Children {
			rec(ch, h)
		}
	}
	rec(root, 0)
	slices.Sort(hashes)
	out := make(PathSet, 0, len(hashes))
	for _, h := range hashes {
		if k := len(out) - 1; k >= 0 && out[k].Hash == h {
			out[k].Count++
			continue
		}
		out = append(out, PathCount{Hash: h, Count: 1})
	}
	return out
}

// Dice is the Dice coefficient of two path multisets: twice the size of
// their intersection over the sum of their sizes, and 1 when both are
// empty. Similarity(a, b) == Dice(Paths(a), Paths(b)) for non-nil a and b.
func Dice(a, b PathSet) float64 {
	var inter, total int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Hash < b[j].Hash:
			i++
		case a[i].Hash > b[j].Hash:
			j++
		default:
			inter += min(a[i].Count, b[j].Count)
			i++
			j++
		}
	}
	for _, p := range a {
		total += p.Count
	}
	for _, p := range b {
		total += p.Count
	}
	if total == 0 {
		return 1
	}
	return float64(2*inter) / float64(total)
}

// ScreenSimilarity compares two screens, treating a differing activity name
// as an immediate mismatch — the abstraction keys on activity first.
func ScreenSimilarity(a, b *Screen) float64 {
	if a == nil || b == nil {
		if a == b {
			return 1
		}
		return 0
	}
	if a.Activity != b.Activity {
		return 0
	}
	return Similarity(a.Root, b.Root)
}

// TopKSimilar returns the indexes of the k screens in candidates most similar
// to target, most similar first. Ties break toward lower index for
// determinism.
func TopKSimilar(target *Screen, candidates []*Screen, k int) []int {
	type scored struct {
		idx int
		sim float64
	}
	scoredAll := make([]scored, len(candidates))
	for i, c := range candidates {
		scoredAll[i] = scored{i, ScreenSimilarity(target, c)}
	}
	sort.SliceStable(scoredAll, func(i, j int) bool { return scoredAll[i].sim > scoredAll[j].sim })
	if k > len(scoredAll) {
		k = len(scoredAll)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = scoredAll[i].idx
	}
	return out
}
