package labeling

import (
	"math/rand"
	"slices"
	"testing"
)

// forestParents returns a parent array of nt trees of up to maxN nodes each,
// in the shapes shapedParents draws.
func forestParents(rng *rand.Rand, nt, maxN, shape int) []int32 {
	var p []int32
	for t := 0; t < nt; t++ {
		base := int32(len(p))
		for _, par := range shapedParents(rng, shape+t, 1+rng.Intn(maxN)) {
			if par >= 0 {
				par += base
			}
			p = append(p, par)
		}
	}
	return p
}

// docOrdered draws m distinct nodes of ix (all of them when m exceeds the
// forest) and returns them in document order: ascending IDs.
func docOrdered(rng *rand.Rand, ix *Index, m int) []int32 {
	ids := make([]int32, 0, len(ix.tree))
	for _, k := range rng.Perm(len(ix.tree)) {
		ids = append(ids, int32(k))
	}
	ids = ids[:min(m, len(ids))]
	slices.Sort(ids)
	return ids
}

// checkAuxForest pins the forest's shape: one vertex per listed node, every
// parent a proper ancestor in the same tree, and Post a post-order of all
// vertices.
func checkAuxForest(t testing.TB, ix *Index, ids []int32, f *AuxForest) {
	t.Helper()
	if len(f.At) != len(ids) {
		t.Fatalf("%d listed nodes, %d vertex positions", len(ids), len(f.At))
	}
	for k, v := range f.At {
		if f.Verts[v].Node != ids[k] {
			t.Fatalf("At[%d] is vertex %d of node %d, want node %d", k, v, f.Verts[v].Node, ids[k])
		}
	}
	for v, x := range f.Verts {
		if x.Parent < 0 {
			continue
		}
		up := f.Verts[x.Parent].Node
		if ix.tree[up] != ix.tree[x.Node] || ix.lcaID(int(up), int(x.Node)) != int(up) || up == x.Node {
			t.Fatalf("vertex %d (node %d) hangs under node %d, not a proper ancestor", v, x.Node, up)
		}
	}
	if len(f.Post) != len(f.Verts) {
		t.Fatalf("Post lists %d of %d vertices", len(f.Post), len(f.Verts))
	}
	done := make([]bool, len(f.Verts))
	for _, v := range f.Post {
		if done[v] {
			t.Fatalf("vertex %d twice in Post", v)
		}
		if p := f.Verts[v].Parent; p >= 0 && done[p] {
			t.Fatalf("vertex %d follows its parent %d in Post", v, p)
		}
		done[v] = true
	}
}

// checkNearest compares Nearest with a pairwise scan of the sources by
// DistanceID, ties to the lowest node ID, at every vertex of the forest.
func checkNearest(t testing.TB, ix *Index, ids, sources []int32, f *AuxForest) {
	t.Helper()
	ix.BuildAuxForest(ids, f)
	checkAuxForest(t, ix, ids, f)
	reach := f.Nearest(sources, nil)
	for v, x := range f.Verts {
		want := Reach{Source: -1}
		for i, k := range sources {
			d := ix.DistanceID(int(x.Node), int(ids[k]))
			if d < 0 {
				continue
			}
			if r := (Reach{int32(d), ids[k], int32(i)}); r.before(want) {
				want = r
			}
		}
		if reach[v] != want {
			t.Fatalf("vertex %d (node %d) of %v with sources at %v: Nearest %+v, pairwise scan %+v",
				v, x.Node, ids, sources, reach[v], want)
		}
	}
}

// TestNearestTieGoesToLowestID: two sources equidistant from a query across
// the branching vertex between them — the lowest node ID wins, whatever the
// order the sources are given in. IDs are document order, so the winner is
// also the earlier of the two in the forest; what the pass must not do is
// prefer the source listed first or the one it reaches first.
func TestNearestTieGoesToLowestID(t *testing.T) {
	ix := NewIndex(buildRepo("c(l1,l2,l3,l4)")) // centre 0, leaves 1–4
	ids := []int32{1, 2, 3, 4}
	var f AuxForest
	ix.BuildAuxForest(ids, &f)
	for _, sources := range [][]int32{{3, 1}, {1, 3}} { // leaves 4 and 2
		reach := f.Nearest(sources, nil)
		for _, q := range []int32{0, 2} { // leaves 1 and 3
			r := reach[f.At[q]]
			if r.Node != 2 || r.Dist != 2 || ids[sources[r.Source]] != 2 {
				t.Fatalf("sources %v: leaf %d reached %+v, want leaf 2 at distance 2", sources, ids[q], r)
			}
		}
		checkNearest(t, ix, ids, sources, &f)
	}
}

// TestNearestWithoutSources: a tree with no source leaves every vertex of
// it unreached, while the next tree's sources still serve their own tree.
func TestNearestWithoutSources(t *testing.T) {
	ix := NewIndex(buildRepo("a(b,c(d))", "x(y,z)"))
	ids := []int32{1, 3, 5, 6} // b, d | y, z
	var f AuxForest
	ix.BuildAuxForest(ids, &f)
	reach := f.Nearest([]int32{3}, nil) // z
	for k, want := range []Reach{{Source: -1}, {Source: -1}, {Dist: 2, Node: 6, Source: 0}, {Dist: 0, Node: 6, Source: 0}} {
		if got := reach[f.At[k]]; got != want {
			t.Errorf("node %d: %+v, want %+v", ids[k], got, want)
		}
	}
	if got := f.Nearest(nil, reach); len(got) != len(f.Verts) || got[f.At[3]].Source != -1 {
		t.Errorf("no sources: %+v", got)
	}
}

// TestBuildAuxForestRejectsUnorderedInput: document order is ascending node
// IDs, within a tree and across trees.
func TestBuildAuxForestRejectsUnorderedInput(t *testing.T) {
	ix := NewIndex(buildRepo("a(b,c)", "x(y)"))
	for _, ids := range [][]int32{{2, 1}, {4, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("out-of-order input %v accepted", ids)
				}
			}()
			ix.BuildAuxForest(ids, &AuxForest{})
		}()
	}
}

func TestNearestMatchesPairwiseProperty(t *testing.T) {
	var f AuxForest // shared on purpose: buffers must not leak between calls
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ix := indexFromParents(forestParents(rng, 1+rng.Intn(4), 60, int(seed)), rng)
		ids := docOrdered(rng, ix, 1+rng.Intn(80))
		var sources []int32
		for _, k := range rng.Perm(len(ids))[:rng.Intn(len(ids)+1)] {
			sources = append(sources, int32(k))
		}
		checkNearest(t, ix, ids, sources, &f)
	}
}

// FuzzNearest: the multi-source pass equals the pairwise scan for any forest
// shape, labelling, listed subset and source subset the fuzzer can reach —
// trees without a source and sources tied across a branching vertex
// included.
func FuzzNearest(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(40), uint8(2), uint16(30), uint8(3))
	f.Add(int64(2), uint8(1), uint16(200), uint8(1), uint16(200), uint8(0)) // a star: ties everywhere
	f.Add(int64(3), uint8(5), uint16(20), uint8(0), uint16(9), uint8(7))
	f.Add(int64(4), uint8(0), uint16(1), uint8(4), uint16(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, trees uint8, n uint16, shape uint8, m uint16, sparsity uint8) {
		rng := rand.New(rand.NewSource(seed))
		ix := indexFromParents(forestParents(rng, 1+int(trees%6), 1+int(n%200), int(shape)), rng)
		ids := docOrdered(rng, ix, 1+int(m%300))
		var sources []int32
		for _, k := range rng.Perm(len(ids)) {
			if rng.Intn(1+int(sparsity%8)) == 0 {
				sources = append(sources, int32(k))
			}
		}
		checkNearest(t, ix, ids, sources, &AuxForest{})
	})
}
