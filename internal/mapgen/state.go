package mapgen

import (
	"sync"
	"sync/atomic"

	"bellflower/internal/labeling"
	"bellflower/internal/matcher"
	"bellflower/internal/objective"
	"bellflower/internal/schema"
)

// EngineStats accumulates the generation engine's effectiveness counters
// across runs. One instance is shared by every runner of a repository
// generation (the serving layer wires the same object into the pre-pass
// runner and all shard runners, mirroring the matching kernel's shared
// NameIndex counters), so sharded snapshots dedup it by identity instead
// of multiplying one figure by the shard count. All methods are safe for
// concurrent use and nil-safe: a nil *EngineStats records nothing.
type EngineStats struct {
	partials        atomic.Int64
	clustersSkipped atomic.Int64
	tightenings     atomic.Int64
	poolReuses      atomic.Int64
}

// NewEngineStats returns a zeroed counter set.
func NewEngineStats() *EngineStats { return &EngineStats{} }

// EngineSnapshot is a point-in-time copy of the engine counters.
type EngineSnapshot struct {
	// PartialMappings is the total number of partial mappings generated by
	// every search through this engine — the paper's machine-independent
	// work indicator, accumulated across requests.
	PartialMappings int64

	// ClustersSkippedByBound counts useful clusters a top-N search never
	// searched because their optimistic upper bound fell below its Δ-floor
	// by the time their turn came.
	ClustersSkippedByBound int64

	// FloorTightenings counts rises of a top-N search's Δ-floor — every
	// time a discovered mapping displaced the weakest kept one (or filled
	// the top-N heap) and raised the pruning bound for the rest of the
	// search.
	FloorTightenings int64

	// PoolReuses counts search-state acquisitions served warm from the
	// pool instead of allocating fresh state.
	PoolReuses int64
}

// Snapshot returns the current counter values; a nil receiver yields a
// zero snapshot.
func (s *EngineStats) Snapshot() EngineSnapshot {
	if s == nil {
		return EngineSnapshot{}
	}
	return EngineSnapshot{
		PartialMappings:        s.partials.Load(),
		ClustersSkippedByBound: s.clustersSkipped.Load(),
		FloorTightenings:       s.tightenings.Load(),
		PoolReuses:             s.poolReuses.Load(),
	}
}

func (s *EngineStats) addPartials(n int64) {
	if s != nil && n != 0 {
		s.partials.Add(n)
	}
}

func (s *EngineStats) addSkipped(n int64) {
	if s != nil && n != 0 {
		s.clustersSkipped.Add(n)
	}
}

func (s *EngineStats) addTightenings(n int64) {
	if s != nil && n != 0 {
		s.tightenings.Add(n)
	}
}

func (s *EngineStats) addPoolReuse() {
	if s != nil {
		s.poolReuses.Add(1)
	}
}

// searchState is the pooled, reusable storage of one mapping search: the
// DFS assignment arrays, the dense used/member bitsets, the subtree
// tracker, the planning scratch and the partial-mapping search's
// restricted candidate sets (backing arrays reused across clusters). Acquire one with
// acquireState and return it with release; a warm acquire→search→release
// cycle allocates nothing.
//
// Invariants between uses (what makes pooling safe): the bitsets are
// fully clear, the subtree tracker and the edge union are empty, clusterOf
// is all -1 and planCount is all zero. Searches restore these on every
// path — set bits are unset when backtracking or when a cluster finishes,
// pushes are popped, candidate masks cleared, and the planner re-clears
// exactly the entries it wrote.
type searchState struct {
	n          int // personal-schema size currently prepared for
	images     []*schema.Node
	sims       []float64
	suffixBest []float64
	sets       [][]matcher.Candidate // GeneratePartialInCluster only
	used       labeling.Bitset
	member     labeling.Bitset
	tree       subtree                   // the searches' mapping-subtree tracker
	union      *objective.DenseEdgeUnion // GeneratePartialInCluster only

	// Planning scratch. planFlat holds every useful cluster's restricted
	// sets back to back and planSets the slice headers into it; a run's
	// plans read both until the run ends.
	clusterOf []int32 // node ID → cluster index this run, -1 outside
	planCount []int32 // per (cluster, personal node): candidates inside
	planPos   []int32 // per (cluster, personal node): fill position in planFlat
	planFlat  []matcher.Candidate
	planSets  [][]matcher.Candidate
	plans     []clusterPlan
	sorter    planSorter
	heap      []Mapping // the top-N search's heap, backing array reused

	// imgSlab and simSlab are append-only chunks whose tails are carved
	// into emitted Mapping Images/Sims slices: one chunk allocation serves
	// slabRuns emissions instead of two allocations per mapping, which is
	// most of the GC pressure of mapping-dense threshold searches. Carved
	// regions are capped (three-index slices) and never recycled while a
	// result may hold them. The δ mode and partial mappings hand them off
	// to their results, so release drops a carved chunk. A top-N search
	// returns a compact copy instead, so it truncates the chunk and clears
	// its pointers, and the next search reuses it. Between uses a chunk is
	// empty: a pooled state never pins emitted results or a swapped
	// repository generation.
	imgSlab []*schema.Node
	simSlab []float64
}

// slabRuns is the emission-slab chunk size, in emitted mappings.
const slabRuns = 128

// emit copies the current assignment into slab-backed Images/Sims slices
// for a Mapping that escapes to the caller.
func (st *searchState) emit(images []*schema.Node, sims []float64) ([]*schema.Node, []float64) {
	n := len(images)
	if cap(st.imgSlab)-len(st.imgSlab) < n {
		st.imgSlab = make([]*schema.Node, 0, slabRuns*n)
	}
	if cap(st.simSlab)-len(st.simSlab) < n {
		st.simSlab = make([]float64, 0, slabRuns*n)
	}
	i, j := len(st.imgSlab), len(st.simSlab)
	st.imgSlab = append(st.imgSlab, images...)
	st.simSlab = append(st.simSlab, sims...)
	return st.imgSlab[i : i+n : i+n], st.simSlab[j : j+n : j+n]
}

var statePool sync.Pool

// acquireState returns a search state sized for the generator's personal
// schema and repository, reusing a pooled one when available.
func acquireState(g *Generator) *searchState {
	st, _ := statePool.Get().(*searchState)
	if st == nil {
		st = &searchState{}
	} else {
		g.cfg.Stats.addPoolReuse()
	}
	st.prepare(g)
	return st
}

// prepare (re)targets the state at the generator's repository and
// personal schema, growing every array to fit. Growth preserves the
// between-use invariants: new clusterOf entries start at -1, new bitset
// words and counts start clear.
func (st *searchState) prepare(g *Generator) {
	n := g.cands.Personal.Len()
	m := g.ix.Repository().Len()
	st.n = n
	if cap(st.images) < n {
		st.images = make([]*schema.Node, n)
		st.sims = make([]float64, n)
		st.suffixBest = make([]float64, n+1)
	}
	st.images = st.images[:n]
	st.sims = st.sims[:n]
	st.suffixBest = st.suffixBest[:n+1]
	if cap(st.sets) < n {
		grown := make([][]matcher.Candidate, n)
		copy(grown, st.sets[:cap(st.sets)])
		st.sets = grown
	}
	st.sets = st.sets[:n]
	st.used.Grow(m)
	st.member.Grow(m)
	st.tree.retarget(g.ix)
	if len(st.clusterOf) < m {
		grown := make([]int32, m)
		copy(grown, st.clusterOf)
		for i := len(st.clusterOf); i < m; i++ {
			grown[i] = -1
		}
		st.clusterOf = grown
	}
}

// growPlanScratch sizes the per-(cluster, personal node) planning arrays.
func (st *searchState) growPlanScratch(kn int) {
	if cap(st.planCount) < kn {
		st.planCount = make([]int32, kn)
		st.planPos = make([]int32, kn)
	}
	st.planCount = st.planCount[:kn]
	st.planPos = st.planPos[:kn]
}

// growPlanSets sizes the flat restricted-set storage for the given number
// of candidates and slice headers.
func (st *searchState) growPlanSets(cands, headers int) ([]matcher.Candidate, [][]matcher.Candidate) {
	if cap(st.planFlat) < cands {
		st.planFlat = make([]matcher.Candidate, cands)
	}
	if cap(st.planSets) < headers {
		st.planSets = make([][]matcher.Candidate, headers)
	}
	return st.planFlat[:cands], st.planSets[:headers]
}

// fillSuffixBest computes the optimistic per-suffix similarity mass for
// the bounding function over a useful cluster's restricted sets:
// suffixBest[i] = Σ_{j≥i} max sim of sets[j]. Restricted sets preserve
// the candidate sets' descending-similarity order, so the head is the max.
func (st *searchState) fillSuffixBest(sets [][]matcher.Candidate) {
	sb := st.suffixBest
	sb[st.n] = 0
	for i := st.n - 1; i >= 0; i-- {
		sb[i] = sb[i+1] + sets[i][0].Sim
	}
}

// reuseSlabs empties the emission chunks for the next search once nothing
// refers to what was carved from them: the top-N search's result is a
// compact copy.
func (st *searchState) reuseSlabs() {
	clear(st.imgSlab)
	st.imgSlab, st.simSlab = st.imgSlab[:0], st.simSlab[:0]
}

// release hands the state back to the pool. Node pointers in the
// assignment array are dropped so a pooled state does not pin a swapped
// repository generation; the candidate backing arrays are overwritten on
// next use. A chunk something was carved from went out with the results.
func (st *searchState) release() {
	clear(st.images)
	if len(st.imgSlab) > 0 {
		st.imgSlab, st.simSlab = nil, nil
	}
	statePool.Put(st)
}
