package cluster

import (
	"math/bits"
	"slices"
	"sync"

	"bellflower/internal/labeling"
	"bellflower/internal/matcher"
)

// state is the working memory of one clustering run, flat and pooled: the
// element universe as parallel arrays in document order, the clusters as
// (offset, length, medoid) records over one shared member buffer, and the
// scratch every step needs. Nothing in it is keyed by a map, nothing is
// allocated per iteration and nothing is sized by the repository beyond one
// bit per node; a run takes a state from statePool and returns it, so a warm
// server clusters without touching the allocator until it builds the Result.
//
// The universe k-means loads is seeded (see the package doc): only trees
// holding an MEmin candidate are stored; the other trees' elements are only
// counted, for the stop test and Result.Unassigned.
//
// Two orderings carry the design. Node-ID order is document order
// (schema.Repository numbers trees in order and each tree in preorder), so
// the universe read off a bitmap of candidate IDs is sorted without a sort:
// a cluster's ascending member list is already in the order
// labeling.Index.Medoid wants, the elements of one tree are one run of the
// arrays, and the universe is a valid input for its auxiliary forest, over
// which assignment runs. Clusters are kept grouped by tree in ascending tree
// order — seeding emits them that way and every step preserves it — so the
// clusters of one tree, the pairs join compares, are a run of the cluster
// list.
type state struct {
	ix  *labeling.Index
	cfg Config

	// The element universe, one entry per distinct candidate node loaded.
	node []int32  // repository node ID
	tree []int32  // repository tree ID
	mask []uint64 // Element.Mask
	all  int      // distinct candidate nodes of every tree, loaded or not

	// assignTo[e] is the cluster index element e was last assigned to, -1
	// for none; prevMedoid[e] the node ID of that cluster's medoid one
	// iteration earlier (-1 initially), for counting moves.
	assignTo   []int32
	prevMedoid []int32

	// clusters lists the current clusters; cluster c's members are
	// data[c.off : c.off+c.n], ascending element indices. rebuild lays data
	// out afresh every iteration and join appends merged member lists
	// behind it, so data never exceeds twice the universe. spare is the
	// other half of the double buffer join and split write into.
	clusters, spare []clusterRef
	data            []int32

	// k-means assignment: the universe's auxiliary forest, built once per
	// run, and each iteration's centroids and nearest-centroid labels.
	forest  labeling.AuxForest
	sources []int32 // element index of each cluster's medoid
	reach   []labeling.Reach

	marks  []uint64               // load: one bit per node ID, clear between runs
	rank   []int32                // load: elements listed before each word of marks
	seeded []uint64               // load: one bit per tree ID, clear between runs
	ids    []int32                // node IDs handed to the medoid kernel; split's overflow half
	uf     []int32                // join: union-find parents; rebuild: per-cluster counters
	owner  []int32                // rebuild: the cluster each element belonged to before assignment
	slot   []int32                // join: component root -> output cluster
	cursor []int32                // join: next free position of each output cluster
	medoid labeling.MedoidScratch // the kernel's own buffers

	medoidRuns, medoidsKept int // Result.MedoidRuns, Result.MedoidsKept
}

// clusterRef is one cluster: a window of state.data and the element index of
// its medoid, -1 while the medoid needs computing.
type clusterRef struct{ off, n, medoid int32 }

var statePool = sync.Pool{New: func() any { return new(state) }}

// newState takes a state from the pool and loads the element universe of
// cands into it: the trees holding a candidate of set seeds, or every tree
// when seeds is negative. The caller releases it.
func newState(ix *labeling.Index, cands *matcher.Candidates, seeds int) *state {
	if cands.Personal.Len() > MaxPersonalNodes {
		panic("cluster: personal schemas with more than 64 nodes not supported")
	}
	st := statePool.Get().(*state)
	st.ix = ix
	st.clusters = st.clusters[:0]
	st.medoidRuns, st.medoidsKept = 0, 0
	st.load(cands, seeds)
	return st
}

// release returns the state to the pool. The index is dropped so a pooled
// state does not pin a retired repository generation.
func (st *state) release() {
	st.ix = nil
	statePool.Put(st)
}

// resize returns s with length n, reusing its backing array when it fits.
// The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	return s[:n]
}

// load deduplicates the candidate nodes of every set into the element
// universe, in document order, without a sort: it marks every candidate's ID
// in a bitmap, lists the set bits of the kept trees in ID order, and ORs each
// candidate's set into the mask of its element, whose index is the rank of
// its bit — the elements listed before its word plus a popcount within it.
// Only the words between the lowest and the highest candidate are read and
// cleared.
func (st *state) load(cands *matcher.Candidates, seeds int) {
	repo := st.ix.Repository()
	var seeded []uint64
	if seeds >= 0 {
		seeded = resize(st.seeded, (repo.NumTrees()+63)/64)
		st.seeded = seeded
		for _, c := range cands.Sets[seeds].Elems {
			t := st.ix.TreeOfID(c.Node.ID)
			seeded[t>>6] |= 1 << (t & 63)
		}
	}
	marks := resize(st.marks, (repo.Len()+63)/64)
	st.marks = marks
	lo, hi := len(marks), 0
	for i := range cands.Sets {
		for _, c := range cands.Sets[i].Elems {
			w := c.Node.ID >> 6
			marks[w] |= 1 << (c.Node.ID & 63)
			lo, hi = min(lo, w), max(hi, w+1)
		}
	}
	if lo > hi { // no candidates
		lo = hi
	}
	marks = marks[lo:hi]

	rank := resize(st.rank, len(marks))
	st.rank = rank
	st.node, st.tree, st.all = st.node[:0], st.tree[:0], 0
	for w, word := range marks {
		rank[w] = int32(len(st.node))
		st.all += bits.OnesCount64(word)
		for rest := word; rest != 0; rest &= rest - 1 {
			id := (lo+w)<<6 | bits.TrailingZeros64(rest)
			t := st.ix.TreeOfID(id)
			if seeded != nil && seeded[t>>6]&(1<<(t&63)) == 0 {
				word &^= rest & -rest // not loaded: no rank either
				continue
			}
			st.node = append(st.node, int32(id))
			st.tree = append(st.tree, int32(t))
		}
		marks[w] = word
	}
	st.mask = resize(st.mask, len(st.node))
	clear(st.mask)
	for i := range cands.Sets {
		for _, c := range cands.Sets[i].Elems {
			w, bit := c.Node.ID>>6-lo, uint64(1)<<(c.Node.ID&63)
			if word := marks[w]; word&bit != 0 {
				st.mask[rank[w]+int32(bits.OnesCount64(word&(bit-1)))] |= 1 << i
			}
		}
	}
	clear(marks)
	clear(seeded)
}

// element materializes element e.
func (st *state) element(e int32) Element {
	return Element{Node: st.ix.Repository().Node(int(st.node[e])), Mask: st.mask[e]}
}

// members returns cluster c's member element indices.
func (st *state) members(c clusterRef) []int32 { return st.data[c.off : c.off+c.n] }

// dist is the tree distance between elements a and b of one tree.
func (st *state) dist(a, b int32) int {
	return st.ix.DistanceID(int(st.node[a]), int(st.node[b]))
}

// medoidOf returns the member of mem (ascending element indices of one
// tree) with the smallest sum of distances to the others, ties to the lowest
// node ID: the exact center of weight, by the labeling kernel.
func (st *state) medoidOf(mem []int32) int32 {
	ids := st.ids[:0]
	for _, e := range mem {
		ids = append(ids, st.node[e])
	}
	st.ids = ids
	st.medoidRuns++
	return mem[st.ix.Medoid(ids, &st.medoid)]
}

// seed declares every element of the smallest candidate set (MEmin) a
// centroid — the paper's heuristic: each useful cluster needs at least one
// element from MEmin, so MEmin members mark all viable regions.
func (st *state) seed(cands *matcher.Candidates) {
	if min := cands.MinSet(); min >= 0 {
		bit := uint64(1) << uint(min)
		for e, m := range st.mask {
			if m&bit != 0 {
				st.clusters = append(st.clusters, clusterRef{medoid: int32(e)})
			}
		}
	}
	st.assignTo = resize(st.assignTo, len(st.node))
	st.prevMedoid = resize(st.prevMedoid, len(st.node))
	for e := range st.prevMedoid {
		st.prevMedoid[e] = -1
	}
}

// treeRun returns the end of the run of clusters, starting at c0, whose
// medoids lie in the tree of cluster c0's.
func (st *state) treeRun(c0 int) int {
	t := st.tree[st.clusters[c0].medoid]
	c1 := c0 + 1
	for c1 < len(st.clusters) && st.tree[st.clusters[c1].medoid] == t {
		c1++
	}
	return c1
}

// assign gives every element to its nearest centroid (same tree only, ties
// to the lowest medoid node ID) and returns the number of elements whose
// cluster identity (medoid node) changed since the last iteration. The
// centroids are the sources of one Nearest pass over the universe's
// auxiliary forest: two linear passes, no distance query.
func (st *state) assign() int {
	src := st.sources[:0]
	for _, c := range st.clusters {
		src = append(src, c.medoid)
	}
	st.sources = src
	st.reach = st.forest.Nearest(src, st.reach)
	moves := 0
	for e, v := range st.forest.At {
		r := st.reach[v]
		node := int32(-1)
		if r.Source >= 0 {
			node = r.Node
		}
		st.assignTo[e] = r.Source
		if node != st.prevMedoid[e] {
			moves++
		}
		st.prevMedoid[e] = node
	}
	return moves
}

// rebuild regenerates the member lists from the assignments — a counting
// sort, so every list comes out ascending — and drops empty clusters. A
// cluster is clean when every element assigned to it already belonged to it
// and it kept its size: the same member set, so the same medoid. Every other
// cluster's medoid becomes -1, for recomputeMedoids.
func (st *state) rebuild() {
	owner := resize(st.owner, len(st.node))
	st.owner = owner
	for e := range owner {
		owner[e] = -1
	}
	for c, ref := range st.clusters {
		for _, e := range st.members(ref) {
			owner[e] = int32(c)
		}
	}
	count := resize(st.uf, len(st.clusters))
	clear(count)
	for e, c := range st.assignTo {
		if c >= 0 {
			count[c]++
			if owner[e] != c {
				st.clusters[c].medoid = -1
			}
		}
	}
	kept, off := st.clusters[:0], int32(0)
	for c, n := range count {
		if n == 0 {
			continue
		}
		medoid := st.clusters[c].medoid
		if n != st.clusters[c].n {
			medoid = -1
		}
		kept = append(kept, clusterRef{off: off, n: n, medoid: medoid})
		count[c] = off // from here on: the cluster's fill cursor
		off += n
	}
	st.clusters, st.uf = kept, count
	st.data = resize(st.data, int(off))
	for e, c := range st.assignTo {
		if c >= 0 {
			st.data[count[c]] = int32(e)
			count[c]++
		}
	}
}

// recomputeMedoids sets the centroid of each cluster rebuild marked to the
// member minimizing the sum of path distances to the other members (the
// center of weight). A clean cluster keeps its medoid: the medoid is a
// function of the member set.
func (st *state) recomputeMedoids() {
	for c := range st.clusters {
		if st.clusters[c].medoid >= 0 {
			st.medoidsKept++
			continue
		}
		st.clusters[c].medoid = st.medoidOf(st.members(st.clusters[c]))
	}
}

// find is union-find lookup with path halving.
func find(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// join merges clusters whose medoids lie within JoinThreshold of each other
// (within the same tree), using union-find, then recomputes the medoids of
// merged clusters. A merged cluster takes the place of its first part.
func (st *state) join() {
	k := len(st.clusters)
	if st.cfg.JoinThreshold <= 0 || k < 2 {
		return
	}
	parent := resize(st.uf, k)
	st.uf = parent
	for c := range parent {
		parent[c] = int32(c)
	}
	merged := false
	for c0 := 0; c0 < k; {
		c1 := st.treeRun(c0)
		for a := c0; a < c1; a++ {
			for b := a + 1; b < c1; b++ {
				if st.dist(st.clusters[a].medoid, st.clusters[b].medoid) <= st.cfg.JoinThreshold {
					ra, rb := find(parent, int32(a)), find(parent, int32(b))
					if ra != rb {
						parent[rb] = ra
						merged = true
					}
				}
			}
		}
		c0 = c1
	}
	if !merged {
		return
	}

	// Size every component; a component of several clusters loses its
	// medoid (-1) and gets a fresh window behind the current data.
	slot := resize(st.slot, k)
	st.slot = slot
	for c := range slot {
		slot[c] = -1
	}
	out := st.spare[:0]
	for c, ref := range st.clusters {
		r := find(parent, int32(c))
		if slot[r] < 0 {
			slot[r] = int32(len(out))
			out = append(out, ref)
			continue
		}
		o := &out[slot[r]]
		o.n += ref.n
		o.medoid = -1
	}
	cursor := resize(st.cursor, len(out))
	st.cursor = cursor
	end := int32(len(st.data))
	for s := range out {
		if out[s].medoid < 0 {
			out[s].off, cursor[s] = end, end
			end += out[s].n
		}
	}
	st.data = slices.Grow(st.data, int(end)-len(st.data))[:end]
	for c, ref := range st.clusters {
		if s := slot[find(parent, int32(c))]; out[s].medoid < 0 {
			cursor[s] += int32(copy(st.data[cursor[s]:], st.members(ref)))
		}
	}
	for s := range out {
		if out[s].medoid < 0 {
			mem := st.members(out[s])
			slices.Sort(mem) // parts are ascending runs; the whole must be too
			out[s].medoid = st.medoidOf(mem)
		}
	}
	st.clusters, st.spare = out, st.clusters
}

// remove deletes clusters smaller than RemoveBelow; their elements become
// free (unassigned) until the next iteration's assignment step.
func (st *state) remove() {
	if st.cfg.RemoveBelow <= 0 {
		return
	}
	kept := st.clusters[:0]
	for _, ref := range st.clusters {
		if int(ref.n) >= st.cfg.RemoveBelow {
			kept = append(kept, ref)
		}
	}
	st.clusters = kept
}

// split breaks clusters larger than SplitAbove around their (approximate)
// farthest element pair: a double sweep finds two mutually distant members,
// and each member goes with the nearer of the two. The halves stay in the
// cluster's window, ascending each.
func (st *state) split() {
	if st.cfg.SplitAbove <= 0 {
		return
	}
	out := st.spare[:0]
	for _, ref := range st.clusters {
		if int(ref.n) <= st.cfg.SplitAbove {
			out = append(out, ref)
			continue
		}
		m := st.members(ref)
		a := st.farthestFrom(m, m[0])
		b := st.farthestFrom(m, a)
		// Stable partition in place: a's side compacts to the front, b's
		// side waits in st.ids (free until the next medoidOf).
		na, rest := 0, st.ids[:0]
		for _, e := range m {
			if st.dist(e, a) <= st.dist(e, b) {
				m[na] = e
				na++
			} else {
				rest = append(rest, e)
			}
		}
		st.ids = rest
		if na == 0 || len(rest) == 0 {
			out = append(out, ref) // m is untouched: nothing moved
			continue
		}
		copy(m[na:], rest)
		out = append(out,
			clusterRef{off: ref.off, n: int32(na), medoid: st.medoidOf(m[:na])},
			clusterRef{off: ref.off + int32(na), n: ref.n - int32(na), medoid: st.medoidOf(m[na:])})
	}
	st.clusters, st.spare = out, st.clusters
}

func (st *state) farthestFrom(mem []int32, from int32) int32 {
	best, bestD := from, -1
	for _, e := range mem {
		d := st.dist(e, from)
		if d > bestD || (d == bestD && st.node[e] < st.node[best]) {
			best, bestD = e, d
		}
	}
	return best
}

// store is the backing of one Result's clusters: the pointer list, the
// cluster structs and their elements, pooled between runs (Result.Release).
type store struct {
	ptrs  []*Cluster
	cls   []Cluster
	elems []Element
}

var storePool = sync.Pool{New: func() any { return new(store) }}

// maxPooledElements is the largest element backing, in elements, that
// Result.Release keeps for reuse (1 MiB); a larger one is left to the
// collector.
const maxPooledElements = 1 << 16

// emit converts the final state into res's exported clusters and counts
// the elements loaded and the elements left in no cluster. The clusters
// share one pooled backing array each for their pointers, their structs and
// their elements.
func (st *state) emit(res *Result) {
	assigned := 0
	for _, ref := range st.clusters {
		assigned += int(ref.n)
	}
	bk := storePool.Get().(*store)
	bk.ptrs = resize(bk.ptrs, len(st.clusters))
	bk.cls = resize(bk.cls, len(st.clusters))
	elems := resize(bk.elems, assigned)[:0]
	repo := st.ix.Repository()
	for c, ref := range st.clusters {
		lo := len(elems)
		for _, e := range st.members(ref) {
			elems = append(elems, st.element(e))
		}
		bk.cls[c] = Cluster{
			ID:       c,
			Medoid:   repo.Node(int(st.node[ref.medoid])),
			TreeID:   int(st.tree[ref.medoid]),
			Elements: elems[lo:len(elems):len(elems)],
		}
		bk.ptrs[c] = &bk.cls[c]
	}
	bk.elems = elems
	n := len(bk.ptrs)
	res.Clusters, res.Loaded, res.Unassigned = bk.ptrs[:n:n], len(st.node), st.all-assigned
	res.store = bk
}

// Release hands the backing of res's clusters back for reuse by a later
// run. Neither res.Clusters nor any cluster or element read from it may be
// used afterwards, so the one caller that owns a result calls it after its
// last use; a result never released is collected as usual. A second call
// does nothing.
func (res *Result) Release() {
	bk := res.store
	if bk == nil {
		return
	}
	res.store, res.Clusters = nil, nil
	if cap(bk.elems) <= maxPooledElements {
		storePool.Put(bk)
	}
}
