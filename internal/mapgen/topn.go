package mapgen

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"bellflower/internal/cluster"
	"bellflower/internal/matcher"
	"bellflower/internal/objective"
)

// The paper notes that "schema matching systems are built to deliver top-N
// mappings, or mappings with the similarity index above certain numerical
// threshold δ". One engine serves both: a depth-first Branch & Bound over
// each useful cluster's restricted candidate sets, pruning against a
// Δ-floor that every worker reads lock-free (an atomic float64) at every
// prune point. In the δ mode (n <= 0) the floor stays at δ and every
// mapping at or above it is kept. In the top-N mode the floor starts at δ
// and is fed by a mutex-guarded global top-N heap — any worker's discovery
// tightens every worker's bound — clusters are dispatched best-first by
// their optimistic upper bound, and a cluster whose bound has fallen below
// the floor by the time it is dispatched is skipped. The heap orders
// mappings by the full deterministic Rank comparator (not Δ alone), and the
// floor prunes only what is clearly below it (belowFloor), so the kept
// N-set is the unique top-N under the total order — bit-identical (scores
// AND order) for every worker count, equal to the inline search and to
// exhaustive-then-truncate (see doc.go; property- and fuzz-tested).
//
// Counters caveat: under top-N parallelism PartialMappings/CompleteMappings
// and the skip/tightening stats depend on the floor's trajectory, which
// depends on scheduling — only the mappings, SearchSpace and
// UsefulClusters are schedule-independent. With a fixed floor (δ mode)
// every counter is schedule-independent.

// GenerateTopN searches the clusters for the n best mappings with
// Δ ≥ the configured threshold. The returned list is ranked. Counters
// reflect the adaptively pruned search.
func (g *Generator) GenerateTopN(clusters []*cluster.Cluster, n int) ([]Mapping, Counters) {
	return g.GenerateTopNParallel(clusters, n, 1, nil)
}

// GenerateTopNStop is GenerateTopN with a cooperative stop hook: stop is
// consulted between clusters, and a true return abandons the search,
// yielding whatever was found so far. A nil stop never stops. This is how
// context cancellation reaches the search without mapgen depending on
// context.
func (g *Generator) GenerateTopNStop(clusters []*cluster.Cluster, n int, stop func() bool) ([]Mapping, Counters) {
	return g.GenerateTopNParallel(clusters, n, 1, stop)
}

// GenerateTopNParallel is the package's one search entry: the top-N search
// for n > 0, the threshold search (every mapping with Δ ≥ δ, under the
// configured Algorithm) for n <= 0, fanned out over up to parallelism
// workers sharing one floor. The returned list is ranked and bit-identical
// — scores and order — to the sequential search and, for n > 0, to
// exhaustive generation truncated to n, for any parallelism (see the
// comment above for why); a top-N list is a compact copy (Compact). stop is
// consulted between clusters by every worker; clusters must be disjoint
// (any clustering Result is). parallelism <= 1 searches inline on the
// calling goroutine with fully deterministic counters.
func (g *Generator) GenerateTopNParallel(clusters []*cluster.Cluster, n, parallelism int, stop func() bool) ([]Mapping, Counters) {
	st := acquireState(g)
	defer st.release()
	var total Counters
	plans := g.planClusters(st, clusters, &total, n > 0)

	e := &st.eng
	e.g, e.limit = g, n
	e.prune = n > 0 || g.cfg.Algorithm == BranchAndBound
	e.heap = nil
	if n > 0 {
		e.heap = st.heap[:0]
	}
	e.cursor.Store(0)
	e.partials.Store(0)
	e.completes.Store(0)
	e.skipped.Store(0)
	e.tightenings = 0
	e.floorBits.Store(math.Float64bits(g.cfg.Threshold))

	if parallelism > len(plans) {
		parallelism = len(plans)
	}
	if parallelism <= 1 {
		e.worker(st, plans, stop)
	} else {
		var wg sync.WaitGroup
		wg.Add(parallelism)
		for w := 0; w < parallelism; w++ {
			go func() {
				defer wg.Done()
				ws := acquireState(g)
				defer ws.release()
				e.worker(ws, plans, stop)
			}()
		}
		wg.Wait()
	}

	total.PartialMappings = e.partials.Load()
	total.CompleteMappings = e.completes.Load()
	total.Found = int64(len(e.heap))
	out := e.heap // the δ mode hands its list over as it is
	Rank(out)
	if n > 0 {
		// The heap's backing array stays with the pooled state, and most of
		// what was emitted into the slabs has been displaced again: the
		// result is a compact copy.
		out = Compact(e.heap)
		clear(e.heap)
		st.heap = e.heap[:0]
	}
	e.heap, e.g = nil, nil
	if s := g.cfg.Stats; s != nil {
		s.addPartials(total.PartialMappings)
		s.addSkipped(e.skipped.Load())
		s.addTightenings(e.tightenings)
	}
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
// credited here for every useful cluster — including ones the engine later
// skips by bound — so those counters stay exact and schedule-independent.
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

// engine is the shared state of one search run: the kept mappings (in the
// top-N mode a mutex-guarded heap with the worst-ranked entry at the root),
// the atomic Δ-floor every worker prunes against, the dispatch cursor over
// the plans, and the work counters. It is embedded in the pooled search
// state, so a warm run allocates no engine either.
type engine struct {
	g     *Generator
	limit int  // N of the top-N mode; <= 0 keeps every mapping at or above δ
	prune bool // false only for the Exhaustive threshold search

	mu          sync.Mutex
	heap        []Mapping
	tightenings int64 // guarded by mu

	floorBits atomic.Uint64 // math.Float64bits of the current floor
	cursor    atomic.Int64
	partials  atomic.Int64
	completes atomic.Int64
	skipped   atomic.Int64
}

// floor returns the current pruning bound; lock-free, monotone rising.
func (e *engine) floor() float64 { return math.Float64frombits(e.floorBits.Load()) }

// belowFloor is the one pruning test: a bound sums similarities in another
// order than the Δ it bounds and may come out a few ulps under it, so only a
// bound clearly below the floor prunes (the slack covers 64 similarities in
// [0,1] many times over; pruning less is always safe).
func belowFloor(bound, floor float64) bool { return bound < floor-1e-12 }

// worker claims clusters off the shared cursor in plan order until the
// plans run out or stop fires. In the top-N mode a cluster whose optimistic
// bound has fallen below the floor is skipped.
func (e *engine) worker(st *searchState, plans []clusterPlan, stop func() bool) {
	s := search{e: e, st: st, n: st.n, all: 1<<uint(st.n) - 1}
	var skipped int64
	for {
		if stop != nil && stop() {
			break
		}
		i := int(e.cursor.Add(1) - 1)
		if i >= len(plans) {
			break
		}
		p := &plans[i]
		if e.limit > 0 && belowFloor(p.bound, e.floor()) {
			skipped++
			continue
		}
		s.cl, s.sets = p.cl, p.sets
		st.fillSuffixBest(p.sets)
		st.tree.setCandidates(p.sets, true)
		s.run(0, 0)
		st.tree.setCandidates(p.sets, false)
	}
	e.partials.Add(s.partials)
	e.completes.Add(s.completes)
	e.skipped.Add(skipped)
	if len(s.out) > 0 {
		e.mu.Lock()
		if e.heap == nil {
			e.heap = s.out
		} else {
			e.heap = append(e.heap, s.out...)
		}
		e.mu.Unlock()
	}
}

// offer submits a complete mapping with Δ ≥ the floor at evaluation time.
// The heap keeps the N first mappings under the full Rank order: while
// not full everything is kept; once full, a newcomer that Rank-precedes
// the current worst displaces it. Either way the floor rises to the
// worst kept Δ — the adaptive tightening every worker observes.
func (e *engine) offer(m Mapping) {
	e.mu.Lock()
	if len(e.heap) < e.limit {
		e.heap = append(e.heap, m)
		e.siftUp(len(e.heap) - 1)
		if len(e.heap) == e.limit {
			e.tighten(e.heap[0].Score.Delta)
		}
	} else if rankLess(&m, &e.heap[0]) {
		e.heap[0] = m
		e.siftDown(0)
		e.tighten(e.heap[0].Score.Delta)
	}
	e.mu.Unlock()
}

// tighten raises the shared floor to f (caller holds mu). The floor never
// falls: the heap's worst entry only ever improves.
func (e *engine) tighten(f float64) {
	if f > e.floor() {
		e.floorBits.Store(math.Float64bits(f))
		e.tightenings++
	}
}

// heapWorse reports whether heap[i] ranks strictly after heap[j] under
// the full deterministic comparator; the Rank-last element sits at the
// root. No interface boxing — the heap is a plain []Mapping.
func (e *engine) heapWorse(i, j int) bool { return rankLess(&e.heap[j], &e.heap[i]) }

func (e *engine) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !e.heapWorse(i, p) {
			break
		}
		e.heap[i], e.heap[p] = e.heap[p], e.heap[i]
		i = p
	}
}

func (e *engine) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		w := i
		if l < len(e.heap) && e.heapWorse(l, w) {
			w = l
		}
		if r < len(e.heap) && e.heapWorse(r, w) {
			w = r
		}
		if w == i {
			break
		}
		e.heap[i], e.heap[w] = e.heap[w], e.heap[i]
		i = w
	}
}

// search is one worker's DFS over the restricted sets of the cluster it
// currently holds. Work counters and the δ mode's kept mappings live in
// the struct (not behind a pointer) so the whole search stays on the
// worker's stack.
type search struct {
	e    *engine
	st   *searchState
	cl   *cluster.Cluster
	sets [][]matcher.Candidate
	n    int
	all  uint64 // one bit per personal node

	partials  int64
	completes int64
	out       []Mapping // δ mode only; the top-N mode offers to the engine's heap
}

// run extends the partial mapping at personal preorder rank i with an
// accumulated similarity sum. Personal nodes are assigned in preorder, so a
// node's parent image is always available when the node is assigned and the
// tracked node set T stays connected.
//
// The bound is admissible (doc.go): unassigned nodes contribute at most
// their best similarity, and Δpath is taken at subtree.edgesAtLeast, which
// the final |Et| cannot undercut. Pruning goes through belowFloor, so
// equal-Δ ties are decided by the heap's full comparator, never by the
// schedule or a rounding.
func (s *search) run(i int, simSum float64) {
	e, st := s.e, s.st
	ev, t := e.g.ev, &st.tree
	if i == s.n {
		s.completes++
		et := t.nodes - 1
		dsim := simSum / float64(s.n)
		dpath := ev.DeltaPath(et)
		delta := ev.Combine(dsim, dpath)
		if delta < e.floor() {
			return
		}
		images, sims := st.emit(st.images, st.sims)
		m := Mapping{
			Images:    images,
			Sims:      sims,
			ClusterID: s.cl.ID,
			Score:     objective.Score{Delta: delta, Sim: dsim, Path: dpath, Et: et},
		}
		if e.limit > 0 {
			e.offer(m)
		} else {
			s.out = append(s.out, m)
		}
		return
	}
	from := int32(-1) // the parent's image; the root's path is its own image
	if parent := e.g.cands.Personal.NodeAt(i).Parent(); parent != nil {
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
		if e.prune && belowFloor(ev.Combine(dsim, before), e.floor()) {
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
		if !e.prune || !belowFloor(ev.Combine(dsim, ev.DeltaPath(t.edgesAtLeast(later))), e.floor()) {
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
