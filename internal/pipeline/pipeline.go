package pipeline

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"bellflower/internal/cluster"
	"bellflower/internal/labeling"
	"bellflower/internal/mapgen"
	"bellflower/internal/matcher"
	"bellflower/internal/objective"
	"bellflower/internal/schema"
	"bellflower/internal/trace"
)

// Variant selects one of the paper's clustering configurations (Sec. 5):
// the join-reclustering distance threshold produces small (2), medium (3)
// or large (4) clusters; VariantTree is the non-clustered baseline in which
// every repository tree is one cluster.
type Variant int

const (
	// VariantTree is the non-clustered baseline ("tree clusters").
	VariantTree Variant = iota
	// VariantSmall uses join distance threshold 2.
	VariantSmall
	// VariantMedium uses join distance threshold 3.
	VariantMedium
	// VariantLarge uses join distance threshold 4.
	VariantLarge
)

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case VariantTree:
		return "tree"
	case VariantSmall:
		return "small"
	case VariantMedium:
		return "medium"
	case VariantLarge:
		return "large"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// ClusterConfig returns the k-means configuration of the variant;
// ok is false for VariantTree, which does not run k-means.
func (v Variant) ClusterConfig() (cfg cluster.Config, ok bool) {
	cfg = cluster.DefaultConfig()
	switch v {
	case VariantSmall:
		cfg.JoinThreshold = 2
	case VariantMedium:
		cfg.JoinThreshold = 3
	case VariantLarge:
		cfg.JoinThreshold = 4
	default:
		return cluster.Config{}, false
	}
	return cfg, true
}

// Variants lists all variants in the order the paper's tables use.
func Variants() []Variant {
	return []Variant{VariantSmall, VariantMedium, VariantLarge, VariantTree}
}

// Options configures one matching run.
type Options struct {
	// Objective holds α and K of the objective function.
	Objective objective.Params

	// Threshold is δ: only mappings with Δ ≥ δ are reported.
	Threshold float64

	// MinSim is the element-matching candidate threshold.
	MinSim float64

	// TopN asks for the N best mappings with Δ ≥ δ (0 = every mapping with
	// Δ ≥ δ). A positive TopN runs the bounded top-N search — the pruning
	// floor rises from δ to the N-th best Δ found so far — which returns
	// exactly the list that generating everything and truncating would,
	// for less work.
	TopN int

	// Variant selects the clustering configuration.
	Variant Variant

	// ClusterConfig overrides the variant's k-means configuration when
	// non-nil (ignored for VariantTree).
	ClusterConfig *cluster.Config

	// Matcher overrides the element matcher (default: paper-faithful
	// fuzzy name matcher).
	Matcher matcher.Matcher

	// IncludePartials also collects partial mappings from non-useful
	// clusters (the Sec. 2.3 extension).
	IncludePartials bool

	// OrderClusters processes useful clusters in descending quality order
	// (the Sec. 7 "ordering the clusters" extension); affects
	// Report.FirstGoodAfter instrumentation and the order mappings are
	// discovered, not the final ranking. (A top-N search orders clusters by
	// its own bound either way.)
	OrderClusters bool

	// StructureMatcher enables the paper's two-phase technique (Sec. 2.3,
	// alternative clustered matching): localized matchers produce the
	// preliminary candidates, clustering partitions them, and this
	// structure matcher rescores candidates inside each useful cluster
	// before mapping generation. StructureWeight in [0,1] blends the
	// localized and structural scores (sim' = (1−w)·sim + w·struct).
	StructureMatcher matcher.Matcher

	// StructureWeight is the blend weight of StructureMatcher (default
	// 0.5 when a StructureMatcher is set).
	StructureWeight float64

	// Agglomerative replaces the adapted k-means with single-linkage
	// threshold clustering (the variant's join threshold becomes the
	// merge threshold). Ignored for VariantTree.
	Agglomerative bool

	// AdaptiveTopN is accepted and ignored: every request with a positive
	// TopN runs the bounded search it used to select.
	//
	// Deprecated: set TopN alone.
	AdaptiveTopN bool
}

// ErrSchemaTooLarge is wrapped in the error every Runner entry point (and
// ComputeClusters) returns for a personal schema of more than
// cluster.MaxPersonalNodes nodes — the width of the clusterer's and the
// mapping generator's per-personal-node bitmasks. It is the same value as
// cluster.ErrSchemaTooLarge and serve.ErrSchemaTooLarge; match with
// errors.Is.
var ErrSchemaTooLarge = cluster.ErrSchemaTooLarge

// Validate checks the option invariants shared by every pipeline entry
// point: the objective parameters, the threshold range, and the MinSim and
// structure weight ranges (NaN included). Entry points call it, through
// CheckRequest, before any work. Messages name the options as the JSON
// request bodies do.
func (o Options) Validate() error {
	if err := o.Objective.Validate(); err != nil {
		return err
	}
	if o.Threshold < 0 || o.Threshold > 1 {
		return fmt.Errorf("pipeline: threshold (delta) %v outside [0,1]", o.Threshold)
	}
	if s := o.MinSim; !(s >= 0 && s <= 1) {
		return fmt.Errorf("pipeline: min_sim %v outside [0,1]", s)
	}
	if w := o.StructureWeight; !(w >= 0 && w <= 1) {
		return fmt.Errorf("pipeline: structure_weight %v outside [0,1]", w)
	}
	return nil
}

// DefaultOptions mirrors the paper's reference experiment: δ = 0.75,
// α = 0.5, medium clusters.
func DefaultOptions() Options {
	return Options{
		Objective: objective.DefaultParams(),
		Threshold: 0.75,
		MinSim:    0.45,
		Variant:   VariantMedium,
	}
}

// Report is the instrumented result of one run.
type Report struct {
	// Variant echoes the clustering variant used.
	Variant Variant

	// MappingElements is the total number of (personal node, repository
	// node) candidate pairs produced by element matching.
	MappingElements int

	// Clusters is the number of clusters formed (all, useful or not).
	Clusters int

	// UsefulClusters can produce complete mappings (Tab. 1a col 1).
	UsefulClusters int

	// AvgElementsPerUsefulCluster is Tab. 1a col 2.
	AvgElementsPerUsefulCluster float64

	// ClusterSizes lists the element count of every cluster (Fig. 4).
	ClusterSizes []int

	// Iterations is the number of k-means iterations (0 for tree
	// clusters).
	Iterations int

	// Counters aggregates the mapping-generator indicators (Tab. 1a col 3
	// = SearchSpace, Tab. 1b) of the search that ran: the paper's
	// enumeration figures come from TopN == 0 runs; under a positive TopN
	// the partial and complete counts are those of the bounded search.
	Counters mapgen.Counters

	// Mappings is the final ranked list (step ⑤).
	Mappings []mapgen.Mapping

	// Partials holds partial mappings from non-useful clusters when
	// requested.
	Partials []mapgen.PartialMapping

	// MatchTime, ClusterTime and GenTime are the wall-clock durations of
	// the three stages.
	MatchTime   time.Duration
	ClusterTime time.Duration
	GenTime     time.Duration

	// FirstGoodAfter is the number of useful clusters processed before
	// the first mapping with Δ ≥ δ appeared (1-based; 0 when none found).
	// With OrderClusters it measures the cluster-ordering extension's
	// time-to-first-mapping benefit. A top-N search visits clusters by
	// bound, not in processing order: there it is 1 whenever anything was
	// found.
	FirstGoodAfter int

	// Incomplete marks a merged report that is missing one or more
	// shards' contributions: the serving router's opt-in partial-results
	// fan-out merges the shards that succeeded instead of failing the
	// whole request. An Incomplete report's top-N is a lower bound, not
	// authoritative; ShardErrors says what is missing and why. Always
	// false for unsharded runs and for strict (default) routing.
	Incomplete bool

	// ShardErrors lists the per-shard failures of an Incomplete report,
	// in shard order.
	ShardErrors []ShardError
}

// ShardError records one shard's failure inside an Incomplete merged
// report.
type ShardError struct {
	// Shard is the failing shard's index in the router's shard order.
	Shard int `json:"shard"`

	// Err is the shard's error text.
	Err string `json:"error"`
}

// TotalTime returns the end-to-end duration of the run.
func (r *Report) TotalTime() time.Duration { return r.MatchTime + r.ClusterTime + r.GenTime }

// Deltas returns the similarity indexes of the ranked mappings, used to
// build preservation curves.
func (r *Report) Deltas() []float64 {
	out := make([]float64, len(r.Mappings))
	for i, m := range r.Mappings {
		out[i] = m.Score.Delta
	}
	return out
}

// Runner executes matching runs against a fixed repository, reusing the
// labelling index across runs. A Runner may be scoped to a shard view
// (NewViewRunnerWithNameIndex): element matching then considers only the
// view's member trees while every structural query still goes through the one shared
// index — this is how sharded serving keeps a single resident index.
//
// A Runner is safe for concurrent use: the repository, labelling index and
// view are built once by the constructors and only read afterwards, and
// every Run / RunContext call keeps its working state (candidates,
// clusters, report) to itself, handing the pooled parts back when it is
// done with them. Many goroutines may call Run on one Runner at once — the
// serve subsystem depends on this.
type Runner struct {
	repo     *schema.Repository
	ix       *labeling.Index
	view     *labeling.View // non-nil: matching restricted to the view's trees
	ni       *matcher.NameIndex
	vocab    *matcher.Vocabulary // the match universe grouped by interned key
	genStats *mapgen.EngineStats // generation-engine counters, shareable
}

// NewRunner builds the labelling index and the name-similarity index for
// the repository.
func NewRunner(repo *schema.Repository) *Runner {
	return newRunner(repo, labeling.NewIndex(repo), nil, matcher.NewNameIndex(repo))
}

// NewRunnerFromIndexes wraps already-built labelling and name indexes,
// sharing both: the serving layer builds each index once per repository
// generation and hands them to the pre-pass runner and every shard runner.
func NewRunnerFromIndexes(ix *labeling.Index, ni *matcher.NameIndex) *Runner {
	return newRunner(ix.Repository(), ix, nil, ni)
}

// NewViewRunnerWithNameIndex builds a runner restricted to a shard view:
// candidate matching covers only the view's member trees, and precomputed
// candidates and clusters handed to RunWithClusters must lie inside the
// view. The labelling index and the name index (and their memory) are
// shared with every other runner of the same repository generation.
func NewViewRunnerWithNameIndex(view *labeling.View, ni *matcher.NameIndex) *Runner {
	return newRunner(view.Repository(), view.Index(), view, ni)
}

func newRunner(repo *schema.Repository, ix *labeling.Index, view *labeling.View, ni *matcher.NameIndex) *Runner {
	r := &Runner{repo: repo, ix: ix, view: view, ni: ni, genStats: mapgen.NewEngineStats()}
	r.vocab = ni.Vocabulary(r.matchNodes())
	return r
}

// Repository returns the runner's repository — always the full repository,
// even for view-scoped runners (views do not clone trees).
func (r *Runner) Repository() *schema.Repository { return r.repo }

// Index returns the runner's labelling index.
func (r *Runner) Index() *labeling.Index { return r.ix }

// NameIndex returns the runner's name-similarity index.
func (r *Runner) NameIndex() *matcher.NameIndex { return r.ni }

// GenStats returns the runner's generation-engine counters.
func (r *Runner) GenStats() *mapgen.EngineStats { return r.genStats }

// ShareGenStats replaces the runner's generation-engine counters with a
// shared instance, so every runner of one repository generation (the
// pre-pass runner and all shard runners) accumulates into one figure —
// the same sharing discipline the NameIndex kernel counters get from the
// constructors. Call before the first Run.
func (r *Runner) ShareGenStats(gs *mapgen.EngineStats) {
	if gs != nil {
		r.genStats = gs
	}
}

// View returns the shard view the runner is scoped to, or nil for a
// whole-repository runner.
func (r *Runner) View() *labeling.View { return r.view }

// matchNodes is the node universe element matching runs against. Both
// branches return a slice built once and shared (views cache their
// member-node slice at construction), so the cold path allocates nothing
// here.
func (r *Runner) matchNodes() []*schema.Node {
	if r.view != nil {
		return r.view.Nodes()
	}
	return r.repo.Nodes()
}

// MatchCandidates runs the element-matching kernel for one personal schema
// against this runner's node universe: the vocabulary-deduplicated keyed
// kernel for property-local matchers, the naive reference loop otherwise.
func (r *Runner) MatchCandidates(personal *schema.Tree, m matcher.Matcher, cfg matcher.Config) *matcher.Candidates {
	return r.vocab.FindCandidates(personal, m, cfg)
}

// checkOwned verifies that a precomputed candidate or cluster node belongs
// to this runner's repository and, for view-scoped runners, to the view.
func (r *Runner) checkOwned(n *schema.Node, what string) error {
	if n.ID < 0 || n.ID >= r.repo.Len() || r.repo.Node(n.ID) != n {
		return fmt.Errorf("pipeline: %s %v does not belong to this runner's repository", what, n)
	}
	if r.view != nil && !r.view.Contains(n) {
		return fmt.Errorf("pipeline: %s %v is outside this runner's shard view", what, n)
	}
	return nil
}

// CheckRequest is the gate every entry point passes first: valid options,
// and a personal schema the bitmask-based stages can represent (else an
// ErrSchemaTooLarge error). Rejecting here keeps an oversized schema an
// error for the caller instead of a panic inside a worker goroutine.
// Callers that front expensive precomputation (the serving router's
// candidate pre-pass) call it themselves to reject cheaply.
func CheckRequest(personal *schema.Tree, opts Options) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	return cluster.CheckPersonal(personal.Len())
}

// Run executes the full pipeline for one personal schema. It is equivalent
// to RunContext with context.Background().
func (r *Runner) Run(personal *schema.Tree, opts Options) (*Report, error) {
	return r.RunContext(context.Background(), personal, opts)
}

// RunContext executes the full pipeline for one personal schema, honouring
// the context's deadline and cancellation. Cancellation is checked between
// pipeline stages and, by every generation worker, between useful clusters,
// so a cancelled run stops early (within one cluster's worth of work) and
// returns ctx.Err().
func (r *Runner) RunContext(ctx context.Context, personal *schema.Tree, opts Options) (*Report, error) {
	if err := CheckRequest(personal, opts); err != nil {
		return nil, err
	}
	m := opts.Matcher
	if m == nil {
		m = matcher.NameMatcher{}
	}

	// Stage 1: element matching (steps ② and ③).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	_, msp := trace.StartSpan(ctx, "pipeline.match")
	cands, info := r.vocab.Match(personal, m, matcher.Config{MinSim: opts.MinSim})
	if msp != nil {
		msp.SetAttrInt("candidates", int64(cands.TotalMappingElements()))
		msp.SetAttrInt("memo_hits", int64(info.MemoHits))
		msp.SetAttrInt("memo_misses", int64(info.MemoMisses))
	}
	msp.End()
	matchTime := time.Since(t0)

	// Stage 2: clustering (step c).
	if err := ctx.Err(); err != nil {
		cands.Release()
		return nil, err
	}
	t1 := time.Now()
	_, csp := trace.StartSpan(ctx, "pipeline.cluster")
	res, err := ClusterCandidates(r.ix, cands, opts)
	if err != nil {
		csp.End()
		cands.Release()
		return nil, err
	}
	if csp != nil {
		csp.SetAttrInt("elements", int64(cands.TotalMappingElements()))
		csp.SetAttrInt("elements_loaded", int64(res.Loaded))
		csp.SetAttrInt("clusters", int64(len(res.Clusters)))
		csp.SetAttrInt("iterations", int64(res.Iterations))
		csp.SetAttrInt("medoid_runs", int64(res.MedoidRuns))
		csp.SetAttrInt("medoids_kept", int64(res.MedoidsKept))
	}
	csp.End()
	rep, err := r.runGeneration(ctx, personal, cands, res.Clusters, res.Iterations, matchTime, time.Since(t1), opts)
	// The report holds neither the candidates nor the clusters, and the
	// generator is done with them: hand their storage back.
	res.Release()
	cands.Release()
	return rep, err
}

// RunWithClusters executes only the mapping-generation stage: both the
// element-matching candidates and the clusters come precomputed. It is the
// one pre-staged entry point — the serving router uses it to run matching
// AND clustering once globally (clusters never span repository trees, so a
// global clustering projects exactly onto tree-level shards) and hand every
// shard just its clusters, making the sharded k-means variants identical to
// an unsharded run rather than a per-shard approximation.
//
// cands and clusters must reference nodes of this runner's repository and
// belong together (clusters built from cands under the same Options);
// iterations is echoed into Report.Iterations. Options fields consumed by
// the earlier stages (Matcher, MinSim, Variant's cluster config,
// ClusterConfig, Agglomerative) are ignored. MatchTime and ClusterTime are
// zero in the report: those stages ran upstream.
func (r *Runner) RunWithClusters(ctx context.Context, personal *schema.Tree, cands *matcher.Candidates, clusters []*cluster.Cluster, iterations int, opts Options) (*Report, error) {
	if err := CheckRequest(personal, opts); err != nil {
		return nil, err
	}
	if cands == nil {
		return nil, fmt.Errorf("pipeline: RunWithClusters needs a candidate set")
	}
	if cands.Personal != personal {
		return nil, fmt.Errorf("pipeline: candidate set was computed for a different personal schema")
	}
	// Spot-check node ownership: a candidate set or cluster computed against
	// (or restricted to) another repository or another shard's view would
	// index foreign IDs into this runner's dense per-node arrays. Checking
	// each set's and cluster's head is cheap and catches the realistic
	// mistake — handing a shard the full-repository set, or another shard's
	// restriction.
	for i := range cands.Sets {
		if len(cands.Sets[i].Elems) == 0 {
			continue
		}
		if err := r.checkOwned(cands.Sets[i].Elems[0].Node, "candidate node"); err != nil {
			return nil, err
		}
	}
	for _, cl := range clusters {
		if cl.Len() == 0 {
			continue
		}
		if err := r.checkOwned(cl.Elements[0].Node, "cluster element"); err != nil {
			return nil, fmt.Errorf("cluster %d: %w", cl.ID, err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r.runGeneration(ctx, personal, cands, clusters, iterations, 0, 0, opts)
}

// ComputeClusters runs the clustering stage (step c) on its own: the
// variant's configuration (or the ClusterConfig override) applied to the
// candidate set through the adapted k-means, the agglomerative alternative,
// or tree clustering for VariantTree. ix must be the labelling index of the
// repository the candidates reference.
func ComputeClusters(ix *labeling.Index, cands *matcher.Candidates, opts Options) (clusters []*cluster.Cluster, iterations int, err error) {
	res, err := ClusterCandidates(ix, cands, opts)
	if err != nil {
		return nil, 0, err
	}
	return res.Clusters, res.Iterations, nil
}

// ClusterCandidates is ComputeClusters with the whole clustering result,
// run counters included; its owner hands the clusters' storage back with
// Result.Release after their last use.
func ClusterCandidates(ix *labeling.Index, cands *matcher.Candidates, opts Options) (*cluster.Result, error) {
	if err := cluster.CheckPersonal(cands.Personal.Len()); err != nil {
		return nil, err
	}
	cfg, ok := opts.Variant.ClusterConfig()
	if !ok {
		return cluster.TreeClusters(ix, cands), nil
	}
	if opts.ClusterConfig != nil {
		cfg = *opts.ClusterConfig
	}
	if opts.Agglomerative {
		return cluster.Agglomerative(ix, cands, cluster.AgglomerativeConfig{
			MergeThreshold: cfg.JoinThreshold,
			MaxClusterSize: cfg.SplitAbove,
		})
	}
	return cluster.KMeans(ix, cands, cfg)
}

// runGeneration is the mapping-generation stage shared by both entry
// points, instrumenting the report with the provided stage durations.
func (r *Runner) runGeneration(ctx context.Context, personal *schema.Tree, cands *matcher.Candidates, clusters []*cluster.Cluster, iterations int, matchTime, clusterTime time.Duration, opts Options) (*Report, error) {
	rep := &Report{Variant: opts.Variant}
	rep.MatchTime = matchTime
	rep.ClusterTime = clusterTime
	rep.MappingElements = cands.TotalMappingElements()
	rep.Iterations = iterations
	rep.Clusters = len(clusters)
	if len(clusters) > 0 {
		rep.ClusterSizes = make([]int, len(clusters))
		for i, cl := range clusters {
			rep.ClusterSizes[i] = cl.Len()
		}
	}

	// Stage 3: mapping generation (steps ④ and ⑤).
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t2 := time.Now()
	_, gsp := trace.StartSpan(ctx, "pipeline.generate")
	defer gsp.End()
	useful, nonUseful := splitUseful(clusters, personal.Len())
	if opts.OrderClusters {
		r.sortByQuality(useful, cands)
	}
	sizeSum := 0
	for _, cl := range useful {
		sizeSum += cl.Len()
	}
	rep.UsefulClusters = len(useful)
	if len(useful) > 0 {
		rep.AvgElementsPerUsefulCluster = float64(sizeSum) / float64(len(useful))
	}

	ev := objective.NewEvaluator(opts.Objective, r.ix, personal)
	genCfg := mapgen.Config{Threshold: opts.Threshold, Stats: r.genStats}
	gen := mapgen.New(genCfg, r.ix, ev, cands)
	complete := gen // searches the useful clusters; gen keeps the partial mappings
	if opts.StructureMatcher != nil {
		complete = mapgen.New(genCfg, r.ix, ev, r.rescoreUseful(cands, useful, opts))
	}
	// Every top-N request runs the bounded search; the threshold search is
	// for requests whose answer is the whole set.
	ms, ctr := complete.GenerateTopNStop(useful, opts.TopN, func() bool { return ctx.Err() != nil })
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep.Counters = ctr
	gsp.SetAttrInt("useful_clusters", int64(rep.UsefulClusters))
	gsp.SetAttrInt("partials", ctr.PartialMappings)
	gsp.SetAttrInt("complete", ctr.CompleteMappings)
	rep.FirstGoodAfter = firstGoodAfter(useful, ms, opts.TopN)
	rep.Mappings = ms

	if opts.IncludePartials {
		if err := collectPartials(ctx, rep, gen, nonUseful); err != nil {
			return nil, err
		}
	}
	rep.GenTime = time.Since(t2)
	return rep, nil
}

// rescoreUseful is the second phase of the two-phase technique (Sec. 2.3):
// the structure matcher rescores the candidates inside useful clusters. A
// pair's blended similarity does not depend on which cluster holds it, so
// one pass over the members of all useful clusters serves every cluster's
// search.
func (r *Runner) rescoreUseful(cands *matcher.Candidates, useful []*cluster.Cluster, opts Options) *matcher.Candidates {
	w := opts.StructureWeight
	if w == 0 {
		w = 0.5
	}
	member := r.acquireMembers()
	defer memberPool.Put(member)
	for _, cl := range useful {
		setMembers(member, cl, true)
	}
	rescored := matcher.Rescore(cands, opts.StructureMatcher, w,
		func(n *schema.Node) bool { return member.Has(n.ID) })
	for _, cl := range useful {
		setMembers(member, cl, false)
	}
	return rescored
}

// firstGoodAfter recovers Report.FirstGoodAfter from the found mappings'
// cluster IDs: the 1-based position, in processing order, of the first
// useful cluster that produced a mapping. A top-N search (n > 0) visits
// clusters by bound instead, where the figure means nothing: it reports 1
// whenever anything was found.
func firstGoodAfter(useful []*cluster.Cluster, ms []mapgen.Mapping, n int) int {
	if len(ms) == 0 {
		return 0
	}
	if n > 0 {
		return 1
	}
	position := make(map[int]int, len(useful))
	for i, cl := range useful {
		position[cl.ID] = i + 1
	}
	first := len(useful)
	for i := range ms {
		if p := position[ms[i].ClusterID]; p < first {
			first = p
		}
	}
	return first
}

// collectPartials gathers partial mappings from non-useful clusters,
// checking for cancellation between clusters, and ranks them
// (mapgen.RankPartials).
func collectPartials(ctx context.Context, rep *Report, gen *mapgen.Generator, nonUseful []*cluster.Cluster) error {
	for _, cl := range nonUseful {
		if err := ctx.Err(); err != nil {
			return err
		}
		pms, ctr := gen.GeneratePartialInCluster(cl)
		_ = ctr // partial counters are not part of the paper's tables
		rep.Partials = append(rep.Partials, pms...)
	}
	mapgen.RankPartials(rep.Partials)
	return nil
}

// splitUseful partitions clusters by usefulness for an n-node personal
// schema, each part in the clusters' order, both cut from one array.
func splitUseful(clusters []*cluster.Cluster, n int) (useful, nonUseful []*cluster.Cluster) {
	full := cluster.FullMask(n)
	parts := make([]*cluster.Cluster, len(clusters))
	u, nu := 0, len(parts)
	for _, cl := range clusters {
		if cl.Useful(full) {
			parts[u] = cl
			u++
		} else {
			nu--
			parts[nu] = cl
		}
	}
	slices.Reverse(parts[nu:])
	return parts[:u:u], parts[nu:]
}

// memberPool recycles the dense node-ID sets behind cluster-membership
// tests. A set goes back to the pool fully clear.
var memberPool = sync.Pool{New: func() any { return new(labeling.Bitset) }}

// acquireMembers returns a clear pooled set covering every node ID of the
// runner's repository; hand it back with memberPool.Put.
func (r *Runner) acquireMembers() *labeling.Bitset {
	member := memberPool.Get().(*labeling.Bitset)
	member.Grow(r.repo.Len())
	return member
}

// setMembers marks (on) or clears the cluster's member nodes in the set.
func setMembers(member *labeling.Bitset, cl *cluster.Cluster, on bool) {
	for i := range cl.Elements {
		if id := cl.Elements[i].Node.ID; on {
			member.Set(id)
		} else {
			member.Unset(id)
		}
	}
}

// clusterQuality scores a cluster's potential to deliver good mappings: the
// average, over personal nodes, of the best element similarity the cluster
// offers for that node — an upper bound on any mapping's Δsim within the
// cluster. (The Sec. 7 "ordering the clusters" future-work item.) member
// is a clear set that covers every candidate's node ID; it is clear again on
// return.
func clusterQuality(member *labeling.Bitset, cl *cluster.Cluster, cands *matcher.Candidates) float64 {
	setMembers(member, cl, true)
	sum := 0.0
	for i := range cands.Sets {
		for _, c := range cands.Sets[i].Elems {
			if member.Has(c.Node.ID) {
				sum += c.Sim // sets are sorted by descending sim
				break
			}
		}
	}
	setMembers(member, cl, false)
	return sum / float64(cands.Personal.Len())
}

// sortByQuality orders clusters by descending clusterQuality, stably.
func (r *Runner) sortByQuality(clusters []*cluster.Cluster, cands *matcher.Candidates) {
	type scored struct {
		cl *cluster.Cluster
		q  float64
	}
	member := r.acquireMembers()
	defer memberPool.Put(member)
	ss := make([]scored, len(clusters))
	for i, cl := range clusters {
		ss[i] = scored{cl, clusterQuality(member, cl, cands)}
	}
	sort.SliceStable(ss, func(i, j int) bool { return ss[i].q > ss[j].q })
	for i := range ss {
		clusters[i] = ss[i].cl
	}
}
