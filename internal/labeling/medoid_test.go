package labeling

import (
	"fmt"
	"math/rand"
	"testing"
)

// referenceMedoid is the exhaustive definition Index.Medoid must equal: the
// full integer sum of distances for every member, smallest sum wins, ties go
// to the lowest node ID. No early exit — a truncated sum is not a sum.
func referenceMedoid(ix *Index, ids []int32) int {
	best, bestSum := 0, -1
	for i, a := range ids {
		sum := 0
		for _, b := range ids {
			sum += ix.DistanceID(int(a), int(b))
		}
		if bestSum < 0 || sum < bestSum || (sum == bestSum && a < ids[best]) {
			best, bestSum = i, sum
		}
	}
	return best
}

// indexFromParents builds an Index straight from a parent array (-1 marks a
// root; every root starts a tree), visiting children in the order given by
// kidOrder. Unlike NewIndex over a schema.Repository, node IDs here need not
// follow document order, which is the case the Medoid contract separates:
// members are processed in Euler order, ties are broken by ID.
func indexFromParents(parent []int32, rng *rand.Rand) *Index {
	n := len(parent)
	kids := make([][]int32, n)
	var roots []int32
	for v, p := range parent {
		if p < 0 {
			roots = append(roots, int32(v))
		} else {
			kids[p] = append(kids[p], int32(v))
		}
	}
	for _, k := range kids {
		rng.Shuffle(len(k), func(i, j int) { k[i], k[j] = k[j], k[i] })
	}
	ix := &Index{depth: make([]int32, n), tree: make([]int32, n), first: make([]int32, n)}
	type frame struct {
		v    int32
		next int
	}
	for t, r := range roots {
		stack := []frame{{v: r}}
		ix.depth[r], ix.tree[r], ix.first[r] = 0, int32(t), int32(len(ix.euler))
		ix.euler = append(ix.euler, r)
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(kids[f.v]) {
				c := kids[f.v][f.next]
				f.next++
				ix.depth[c], ix.tree[c], ix.first[c] = int32(len(stack)), int32(t), int32(len(ix.euler))
				ix.euler = append(ix.euler, c)
				stack = append(stack, frame{v: c})
				continue
			}
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				ix.euler = append(ix.euler, stack[len(stack)-1].v)
			}
		}
	}
	ix.buildSparse()
	return ix
}

// shapedParents returns a one-tree parent array of n nodes in the given
// shape, relabelled by a random permutation so IDs carry no structure.
func shapedParents(rng *rand.Rand, shape, n int) []int32 {
	p := make([]int32, n)
	p[0] = -1
	for i := 1; i < n; i++ {
		switch shape % 5 {
		case 0: // path / deep chain
			p[i] = int32(i - 1)
		case 1: // star
			p[i] = 0
		case 2: // random recursive tree
			p[i] = int32(rng.Intn(i))
		case 3: // caterpillar: a spine with one leaf per spine node
			if i%2 == 1 {
				p[i] = int32(max(i-2, 0))
			} else {
				p[i] = int32(i - 1)
			}
		default: // deep chain ending in a bush
			if i < n/2 {
				p[i] = int32(i - 1)
			} else {
				p[i] = int32(n/2 - 1 + rng.Intn(i-n/2+1))
			}
		}
	}
	perm := rng.Perm(n)
	out := make([]int32, n)
	for i, par := range p {
		if par < 0 {
			out[perm[i]] = -1
		} else {
			out[perm[i]] = int32(perm[par])
		}
	}
	return out
}

// checkMedoid compares the kernel with the reference on one member list,
// in the order given and in Euler order (the clusterer's fast path).
func checkMedoid(t testing.TB, ix *Index, ids []int32, sc *MedoidScratch) {
	t.Helper()
	want := ids[referenceMedoid(ix, ids)]
	if got := ids[ix.Medoid(ids, sc)]; got != want {
		t.Fatalf("Medoid(%v) = node %d, exhaustive reference = node %d", ids, got, want)
	}
	sorted := append([]int32(nil), ids...)
	for i := 1; i < len(sorted); i++ { // insertion sort by Euler position
		for j := i; j > 0 && ix.first[sorted[j]] < ix.first[sorted[j-1]]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	if got := sorted[ix.Medoid(sorted, sc)]; got != want {
		t.Fatalf("Medoid(Euler-sorted %v) = node %d, exhaustive reference = node %d", sorted, got, want)
	}
}

// pickMembers draws m distinct nodes of one tree of ix (all of them when m
// exceeds the tree), in random order.
func pickMembers(rng *rand.Rand, ix *Index, m int) []int32 {
	tree := ix.tree[rng.Intn(len(ix.tree))]
	var pool []int32
	for id, t := range ix.tree {
		if t == tree {
			pool = append(pool, int32(id))
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if m > len(pool) {
		m = len(pool)
	}
	return pool[:m]
}

func TestMedoidMatchesReferenceProperty(t *testing.T) {
	var sc MedoidScratch // shared on purpose: buffers must not leak between calls
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ix *Index
		if seed%3 == 0 {
			// Repository-built: IDs follow document order.
			ix = NewIndex(randomForest(rng, 1+rng.Intn(4), 80))
		} else {
			// Hand-built: IDs are a random relabelling, ID order ≠ Euler order.
			ix = indexFromParents(shapedParents(rng, int(seed), 1+rng.Intn(120)), rng)
		}
		for trial := 0; trial < 8; trial++ {
			m := 1 + rng.Intn(40)
			if trial == 0 {
				m = 1 // single member
			}
			if trial == 1 {
				m = 1 << 20 // the whole tree: every member's LCA is a member too
			}
			checkMedoid(t, ix, pickMembers(rng, ix, m), &sc)
		}
	}
}

func TestMedoidTieGoesToLowestID(t *testing.T) {
	// A star's leaves are all equally far from everything; with the centre
	// left out the lowest-ID leaf must win whatever the input order.
	ix := NewIndex(buildRepo("c(l1,l2,l3,l4)"))
	var sc MedoidScratch
	for _, ids := range [][]int32{{1, 2, 3, 4}, {4, 3, 2, 1}, {3, 1, 4, 2}} {
		if got := ids[ix.Medoid(ids, &sc)]; got != 1 {
			t.Errorf("Medoid(%v) = node %d, want node 1", ids, got)
		}
	}
	// A node listed twice weighs twice: {l1, l4, l4} centres on l4.
	if ids := []int32{1, 4, 4}; ids[ix.Medoid(ids, &sc)] != 4 {
		t.Errorf("Medoid(%v) = node %d, want node 4", ids, ids[ix.Medoid(ids, &sc)])
	}
}

func TestMedoidRejectsBadInput(t *testing.T) {
	ix := NewIndex(buildRepo("a(b)", "x(y)"))
	for name, ids := range map[string][]int32{"empty": nil, "cross-tree": {0, 1, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s member list accepted", name)
				}
			}()
			ix.Medoid(ids, &MedoidScratch{})
		}()
	}
}

func TestMedoidWarmScratchDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ix := indexFromParents(shapedParents(rng, 2, 400), rng)
	ids := pickMembers(rng, ix, 60) // random order: exercises the sort path too
	var sc MedoidScratch
	ix.Medoid(ids, &sc)
	if n := testing.AllocsPerRun(50, func() { ix.Medoid(ids, &sc) }); n != 0 {
		t.Errorf("warm Medoid allocates %v times per call, want 0", n)
	}
}

// FuzzMedoidEquivalence: the kernel equals the exhaustive reference for any
// tree shape, labelling and member choice the fuzzer can reach.
func FuzzMedoidEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(30), uint8(0), uint16(8))
	f.Add(int64(2), uint16(200), uint8(2), uint16(21))
	f.Add(int64(3), uint16(64), uint8(4), uint16(64))
	f.Add(int64(4), uint16(1), uint8(1), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, shape uint8, m uint16) {
		rng := rand.New(rand.NewSource(seed))
		ix := indexFromParents(shapedParents(rng, int(shape), 1+int(n%400)), rng)
		checkMedoid(t, ix, pickMembers(rng, ix, 1+int(m%100)), &MedoidScratch{})
	})
}

// benchMembers draws m members from a preorder window of a large random
// tree — clusters are local — and returns them in Euler order.
func benchMembers(rng *rand.Rand, ix *Index, m int) []int32 {
	n := len(ix.first)
	byPre := make([]int32, 0, n)
	seen := make(map[int32]bool, n)
	for _, id := range ix.euler {
		if !seen[id] {
			seen[id] = true
			byPre = append(byPre, id)
		}
	}
	lo := rng.Intn(n - 3*m)
	window := byPre[lo : lo+3*m]
	var ids []int32
	for _, k := range rng.Perm(3 * m)[:m] {
		ids = append(ids, window[k])
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ix.first[ids[j]] < ix.first[ids[j-1]]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

// BenchmarkMedoid puts the crossover on record: the auxiliary-tree kernel
// against the exhaustive scan it replaced, at the cluster sizes the serving
// path sees (8 = small, 21 = the cold-topn mean, 60 = SplitAbove) and one
// tree-cluster size.
func BenchmarkMedoid(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	ix := NewIndex(randomForest(rng, 1, 4000))
	for ix.Repository().Len() < 2000 {
		ix = NewIndex(randomForest(rng, 1, 4000))
	}
	for _, m := range []int{8, 21, 60, 500} {
		ids := benchMembers(rng, ix, m)
		b.Run(fmt.Sprintf("kernel/m=%d", m), func(b *testing.B) {
			var sc MedoidScratch
			for i := 0; i < b.N; i++ {
				ix.Medoid(ids, &sc)
			}
		})
		b.Run(fmt.Sprintf("exhaustive/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				referenceMedoid(ix, ids)
			}
		})
	}
}
