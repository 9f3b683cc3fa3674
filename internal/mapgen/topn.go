package mapgen

import (
	"sort"

	"bellflower/internal/cluster"
	"bellflower/internal/matcher"
	"bellflower/internal/objective"
)

// The paper notes that "schema matching systems are built to deliver top-N
// mappings, or mappings with the similarity index above certain numerical
// threshold δ". One search serves both: a depth-first Branch & Bound over
// each useful cluster's restricted candidate sets, on the calling
// goroutine, pruning against a Δ-floor. In the δ mode (n <= 0) the floor
// stays at δ and every mapping at or above it is kept. In the top-N mode
// the floor starts at δ and follows the worst entry of a top-N heap,
// clusters are searched best-first by their optimistic upper bound, and a
// cluster whose bound has fallen below the floor by its turn is skipped.
// The heap orders mappings by the full deterministic Rank comparator (not
// Δ alone), and the floor prunes only what is clearly below it
// (belowFloor), so the kept N-set is the unique top-N under the total
// order — equal to exhaustive-then-truncate (see doc.go; property- and
// fuzz-tested).

// GenerateTopN searches the clusters for the n best mappings with
// Δ ≥ the configured threshold. The returned list is ranked. Counters
// reflect the adaptively pruned search.
func (g *Generator) GenerateTopN(clusters []*cluster.Cluster, n int) ([]Mapping, Counters) {
	return g.GenerateTopNStop(clusters, n, nil)
}

// GenerateTopNStop is the package's one search entry: the top-N search for
// n > 0, the threshold search (every mapping with Δ ≥ δ) for n <= 0. The returned list is ranked and, for
// n > 0, bit-identical — scores and order — to exhaustive generation
// truncated to n; a top-N list is a compact copy (Compact). stop is
// consulted between clusters, and a true return abandons the search,
// yielding whatever was found so far; a nil stop never stops. This is how
// context cancellation reaches the search without mapgen depending on
// context. Clusters must be disjoint (any clustering Result is).
func (g *Generator) GenerateTopNStop(clusters []*cluster.Cluster, n int, stop func() bool) ([]Mapping, Counters) {
	st := acquireState(g)
	defer st.release()
	var total Counters
	plans := g.planClusters(st, clusters, &total, n > 0)

	s := search{
		g: g, st: st, n: st.n, all: 1<<uint(st.n) - 1,
		limit: n, floor: g.cfg.Threshold,
	}
	if n > 0 {
		s.kept = st.heap[:0]
	}
	for i := range plans {
		if stop != nil && stop() {
			break
		}
		p := &plans[i]
		if n > 0 && belowFloor(p.bound, s.floor) {
			s.skipped++
			continue
		}
		s.cl, s.sets = p.cl, p.sets
		st.fillSuffixBest(p.sets)
		st.tree.setCandidates(p.sets, true)
		s.run(0, 0)
		st.tree.setCandidates(p.sets, false)
	}

	total.PartialMappings = s.partials
	total.CompleteMappings = s.completes
	total.Found = int64(len(s.kept))
	out := s.kept // the δ mode hands its list over as it is
	Rank(out)
	if n > 0 {
		// The heap's backing array stays with the pooled state, and most of
		// what was emitted into the slabs has been displaced again: the
		// result is a compact copy.
		out = Compact(s.kept)
		clear(s.kept)
		st.heap = s.kept[:0]
	}
	g.cfg.Stats.addPartials(s.partials)
	g.cfg.Stats.addSkipped(s.skipped)
	g.cfg.Stats.addTightenings(s.tightenings)
	return out, total
}

// clusterPlan is one useful cluster scheduled for the search.
type clusterPlan struct {
	cl    *cluster.Cluster
	sets  [][]matcher.Candidate // per personal node: the candidates inside the cluster
	bound float64               // optimistic upper bound on any mapping's Δ in the cluster
	space float64               // exact Π |restricted set| search-space size
	idx   int32                 // original position: the deterministic tie-break
}

// planSorter orders plans by descending bound; among equal bounds the
// smaller search space goes first (it raises the floor for less work),
// then the original position. It lives in the pooled state so sort.Sort
// sees a stable interface value and the warm path allocates nothing.
type planSorter struct{ p []clusterPlan }

func (s *planSorter) Len() int { return len(s.p) }
func (s *planSorter) Less(i, j int) bool {
	a, b := &s.p[i], &s.p[j]
	if a.bound != b.bound {
		return a.bound > b.bound
	}
	if a.space != b.space {
		return a.space < b.space
	}
	return a.idx < b.idx
}
func (s *planSorter) Swap(i, j int) { s.p[i], s.p[j] = s.p[j], s.p[i] }

// planClusters computes, in two passes over the candidate sets, every
// cluster's usefulness, exact search-space size, restricted candidate sets
// and optimistic Δ upper bound (cluster-wide best-similarity mass combined
// with the maximal Δpath), using a dense node→cluster map instead of
// per-cluster member scans: the first pass counts candidates per (cluster,
// personal node), the second drops each candidate of a useful cluster into
// its slot of one flat array — descending-similarity order preserved —
// which the plans' sets are views of. UsefulClusters and SearchSpace are
// credited here for every useful cluster — including ones the search later
// skips by bound — so they count the clusters' whole search space.
// Non-useful clusters yield no plan (they cannot produce complete
// mappings, Sec. 2.3). Plans come back best-first when bestFirst is set,
// in the given cluster order otherwise.
func (g *Generator) planClusters(st *searchState, clusters []*cluster.Cluster, ctr *Counters, bestFirst bool) []clusterPlan {
	n := st.n
	st.growPlanScratch(len(clusters) * n)
	co, cnt, pos := st.clusterOf, st.planCount, st.planPos
	for ci, cl := range clusters {
		for i := range cl.Elements {
			co[cl.Elements[i].Node.ID] = int32(ci)
		}
	}
	for i := 0; i < n; i++ {
		for _, c := range g.cands.Sets[i].Elems {
			if ci := co[c.Node.ID]; ci >= 0 {
				cnt[int(ci)*n+i]++
			}
		}
	}
	plans := st.plans[:0]
	filled := 0
	for ci, cl := range clusters {
		row := ci * n
		space := 1.0
		for i := 0; i < n; i++ {
			space *= float64(cnt[row+i])
		}
		if space == 0 {
			// Some personal node has no candidate here: unmap the members,
			// so the fill pass leaves them out.
			for i := range cl.Elements {
				co[cl.Elements[i].Node.ID] = -1
			}
			continue
		}
		for i := 0; i < n; i++ {
			pos[row+i] = int32(filled)
			filled += int(cnt[row+i])
		}
		ctr.UsefulClusters++
		ctr.SearchSpace += space
		plans = append(plans, clusterPlan{cl: cl, space: space, idx: int32(ci)})
	}
	flat, sets := st.growPlanSets(filled, len(plans)*n)
	for i := 0; i < n; i++ {
		for _, c := range g.cands.Sets[i].Elems {
			if ci := co[c.Node.ID]; ci >= 0 {
				p := int(ci)*n + i
				flat[pos[p]] = c
				pos[p]++
			}
		}
	}
	top := g.ev.DeltaPath(0)
	for pi := range plans {
		p := &plans[pi]
		row := int(p.idx) * n
		p.sets = sets[pi*n : (pi+1)*n : (pi+1)*n]
		sum := 0.0
		for i := 0; i < n; i++ {
			end := int(pos[row+i]) // the fill pass advanced every slot to its end
			set := flat[end-int(cnt[row+i]) : end : end]
			p.sets[i] = set
			sum += set[0].Sim // sets are sorted by descending sim
		}
		p.bound = g.ev.Combine(sum/float64(n), top)
	}
	// Restore the scratch invariants: clusterOf back to -1, counts to 0.
	for _, cl := range clusters {
		for i := range cl.Elements {
			co[cl.Elements[i].Node.ID] = -1
		}
	}
	clear(cnt)
	st.plans = plans
	if bestFirst {
		st.sorter.p = plans
		sort.Sort(&st.sorter)
	}
	return plans
}

// belowFloor is the one pruning test: a bound sums similarities in another
// order than the Δ it bounds and may come out a few ulps under it, so only a
// bound clearly below the floor prunes (the slack covers 64 similarities in
// [0,1] many times over; pruning less is always safe).
func belowFloor(bound, floor float64) bool { return bound < floor-1e-12 }

// search is one run's DFS state: the cluster being searched, the Δ-floor,
// the kept mappings (in the top-N mode a heap with the Rank-last entry at
// the root, in the δ mode a plain list) and the work counters. It lives on
// the caller's stack; everything sized by the repository is in st.
type search struct {
	g     *Generator
	st    *searchState
	cl    *cluster.Cluster
	sets  [][]matcher.Candidate
	n     int
	all   uint64 // one bit per personal node
	limit int    // N of the top-N mode; <= 0 keeps every mapping at or above δ
	floor float64

	kept        []Mapping
	partials    int64
	completes   int64
	skipped     int64
	tightenings int64
}

// offer submits a complete mapping with Δ ≥ the floor in the top-N mode.
// The heap keeps the N first mappings under the full Rank order: while
// not full everything is kept; once full, a newcomer that Rank-precedes
// the current worst displaces it. Either way the floor rises to the
// worst kept Δ — the adaptive tightening.
func (s *search) offer(m Mapping) {
	if len(s.kept) < s.limit {
		s.kept = append(s.kept, m)
		s.siftUp(len(s.kept) - 1)
		if len(s.kept) == s.limit {
			s.tighten(s.kept[0].Score.Delta)
		}
	} else if rankLess(&m, &s.kept[0]) {
		s.kept[0] = m
		s.siftDown(0)
		s.tighten(s.kept[0].Score.Delta)
	}
}

// tighten raises the floor to f. The floor never falls: the heap's worst
// entry only ever improves.
func (s *search) tighten(f float64) {
	if f > s.floor {
		s.floor = f
		s.tightenings++
	}
}

// heapWorse reports whether kept[i] ranks strictly after kept[j] under the
// full deterministic comparator; the Rank-last element sits at the root.
// No interface boxing — the heap is a plain []Mapping.
func (s *search) heapWorse(i, j int) bool { return rankLess(&s.kept[j], &s.kept[i]) }

func (s *search) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.heapWorse(i, p) {
			break
		}
		s.kept[i], s.kept[p] = s.kept[p], s.kept[i]
		i = p
	}
}

func (s *search) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		w := i
		if l < len(s.kept) && s.heapWorse(l, w) {
			w = l
		}
		if r < len(s.kept) && s.heapWorse(r, w) {
			w = r
		}
		if w == i {
			break
		}
		s.kept[i], s.kept[w] = s.kept[w], s.kept[i]
		i = w
	}
}

// run extends the partial mapping at personal preorder rank i with an
// accumulated similarity sum. Personal nodes are assigned in preorder, so a
// node's parent image is always available when the node is assigned and the
// tracked node set T stays connected.
//
// The bound is admissible (doc.go): unassigned nodes contribute at most
// their best similarity, and Δpath is taken at subtree.edgesAtLeast, which
// the final |Et| cannot undercut. Pruning goes through belowFloor, so
// equal-Δ ties are decided by the heap's full comparator, never by a
// rounding.
func (s *search) run(i int, simSum float64) {
	st := s.st
	ev, t := s.g.ev, &st.tree
	if i == s.n {
		s.completes++
		et := t.nodes - 1
		dsim := simSum / float64(s.n)
		dpath := ev.DeltaPath(et)
		delta := ev.Combine(dsim, dpath)
		if delta < s.floor {
			return
		}
		images, sims := st.emit(st.images, st.sims)
		m := Mapping{
			Images:    images,
			Sims:      sims,
			ClusterID: s.cl.ID,
			Score:     objective.Score{Delta: delta, Sim: dsim, Path: dpath, Et: et},
		}
		if s.limit > 0 {
			s.offer(m)
		} else {
			s.kept = append(s.kept, m)
		}
		return
	}
	from := int32(-1) // the parent's image; the root's path is its own image
	if parent := s.g.cands.Personal.NodeAt(i).Parent(); parent != nil {
		from = int32(st.images[parent.Pre].ID)
	}
	rest := st.suffixBest[i+1]
	later := s.all &^ (2<<uint(i) - 1) // personal nodes after i
	// Sorted cut-off: the set is in descending similarity and the look-ahead
	// over T as it stands holds for every candidate, so once that bound is
	// below the floor, every later candidate's is too.
	before := ev.DeltaPath(t.edgesAtLeast(later | 1<<uint(i)))
	for _, c := range s.sets[i] {
		dsim := (simSum + c.Sim + rest) / float64(s.n)
		if belowFloor(ev.Combine(dsim, before), s.floor) {
			break
		}
		if st.used.Has(c.Node.ID) {
			continue // "1 to 1": images must be distinct
		}
		s.partials++
		id := int32(c.Node.ID)
		if i == 0 {
			from = id
		}
		mark := t.push(from, id)
		t.adjust(id, -1) // an image is no longer a free candidate
		if !belowFloor(ev.Combine(dsim, ev.DeltaPath(t.edgesAtLeast(later))), s.floor) {
			st.images[i] = c.Node
			st.sims[i] = c.Sim
			st.used.Set(c.Node.ID)
			s.run(i+1, simSum+c.Sim)
			st.used.Unset(c.Node.ID)
		}
		t.adjust(id, 1)
		t.pop(mark)
	}
}
