package labeling

import "slices"

// MedoidScratch holds the buffers Index.Medoid reuses between calls. The
// zero value is ready to use; a scratch serves one goroutine at a time.
type MedoidScratch struct {
	keys   []uint64 // first-occurrence<<32 | position, for unsorted input only
	sorted []int32  // the members in Euler order, for unsorted input only
	forest AuxForest
	w      []weight // per vertex of forest
}

// weight is what the rerooting passes carry per auxiliary vertex.
type weight struct {
	cnt int32 // members in the vertex's auxiliary subtree
	sum int64 // distances to the members below; after rerooting, to all members
}

// Medoid returns the position in ids of the member with the smallest sum of
// tree distances to all members — the cluster's "center of weight" — and, of
// several such members, the one with the lowest node ID. The result is exact
// and equals an exhaustive O(m²) scan with full integer sums.
//
// ids must be non-empty and name nodes of one tree; both are checked. Members
// already in Euler (document) order, which is how the clusterer keeps them,
// cost O(m) plus m−1 LCA lookups; any other order costs an O(m log m) sort
// first. A node listed twice counts twice.
//
// The sums come from the members' auxiliary tree (BuildAuxForest) and a
// two-pass rerooting over its edges, whose lengths are depth differences:
// bottom-up, every vertex folds its subtree's member count and distance sum
// into its parent; top-down, every vertex derives its total from its
// parent's, total(v) = total(parent) + (m − 2·cnt(v))·len(v, parent).
func (ix *Index) Medoid(ids []int32, sc *MedoidScratch) int {
	m := len(ids)
	if m == 0 {
		panic("labeling: Medoid of no members")
	}
	tree, sorted := ix.tree[ids[0]], true
	for k := 1; k < m; k++ {
		if ix.tree[ids[k]] != tree {
			panic("labeling: Medoid members in different trees")
		}
		if ix.first[ids[k]] < ix.first[ids[k-1]] {
			sorted = false
		}
	}
	switch m {
	case 1:
		return 0
	case 2: // both sums are the pair's distance
		if ids[1] < ids[0] {
			return 1
		}
		return 0
	}
	seq, keys := ids, sc.keys[:0]
	if !sorted {
		for k, id := range ids {
			keys = append(keys, uint64(ix.first[id])<<32|uint64(k))
		}
		slices.Sort(keys)
		seq = sc.sorted[:0]
		for _, key := range keys {
			seq = append(seq, ids[uint32(key)])
		}
		sc.keys, sc.sorted = keys, seq
	}

	f := &sc.forest
	ix.BuildAuxForest(seq, f)
	w := slices.Grow(sc.w[:0], len(f.Verts))[:len(f.Verts)]
	clear(w)
	sc.w = w
	for _, v := range f.At {
		w[v].cnt = 1
	}
	verts := f.Verts
	for _, v := range f.Post {
		x := &verts[v]
		if x.Parent < 0 {
			continue
		}
		up := &w[x.Parent]
		up.cnt += w[v].cnt
		up.sum += w[v].sum + int64(w[v].cnt)*int64(x.Depth-verts[x.Parent].Depth)
	}
	for k := len(f.Post) - 1; k >= 0; k-- {
		v := f.Post[k]
		x := &verts[v]
		if x.Parent < 0 {
			continue
		}
		w[v].sum = w[x.Parent].sum + int64(int32(m)-2*w[v].cnt)*int64(x.Depth-verts[x.Parent].Depth)
	}

	best := -1
	var bestSum int64
	var bestID int32
	for k, v := range f.At {
		if s, id := w[v].sum, seq[k]; best < 0 || s < bestSum || (s == bestSum && id < bestID) {
			best, bestSum, bestID = k, s, id
		}
	}
	if !sorted {
		return int(uint32(keys[best]))
	}
	return best
}
