package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bellflower/internal/cluster"
	"bellflower/internal/labeling"
	"bellflower/internal/mapgen"
	"bellflower/internal/matcher"
	"bellflower/internal/pipeline"
	"bellflower/internal/query"
	"bellflower/internal/schema"
	"bellflower/internal/trace"
)

// Backend is the serving surface shared by Service (one shard) and Router
// (a shard fan-out). The HTTP daemon and other embedders program against
// this interface so single-shard and sharded deployments are
// interchangeable. All methods are safe for concurrent use.
type Backend interface {
	// Match serves one match request; see Service.Match.
	Match(ctx context.Context, personal *schema.Tree, opts pipeline.Options) (*pipeline.Report, error)

	// MatchJSON is Match returning the report's HTTP rendering
	// (AppendReportJSON) — resident in the report's cache entry where the
	// backend keeps one (Service.MatchJSON). The bytes may be shared and
	// must be treated as read-only.
	MatchJSON(ctx context.Context, personal *schema.Tree, opts pipeline.Options) ([]byte, error)

	// RewriteQuery translates a personal-schema XPath query through a
	// mapping discovered by Match on this backend.
	RewriteQuery(q string, personal *schema.Tree, mp mapgen.Mapping) (string, error)

	// Stats returns a snapshot of the backend's instrumentation, rolled up
	// across shards. In a rolled-up snapshot per-shard quantities are
	// summed, so one fanned-out request counts once per shard.
	Stats() Stats

	// Snapshot returns the rollup and one snapshot per shard (length
	// NumShards) that it was computed from, taken together: total's
	// shard-derived fields always equal the sum of the shards (plus any
	// router-level counters).
	Snapshot() (total Stats, shards []Stats)

	// RepositoryStats summarizes the repository across all shards.
	RepositoryStats() schema.Stats

	// NumShards reports the fan-out width (1 for a plain Service).
	NumShards() int

	// Close releases the backend; Match calls after Close return ErrClosed.
	Close()
}

var (
	_ Backend = (*Service)(nil)
	_ Backend = (*Router)(nil)
)

// ShardBackend is the narrow surface the Router demands of one shard: one
// staged match entry point, a stats snapshot and teardown. A shard is ANY
// implementation — an in-process view-backed Service, or a client for a
// shard hosted in another process (internal/shardrpc.ReplicaSet speaks the
// wire protocol behind bellflower-server's -shard-of mode). The router
// reaches shards only through this interface, so local and remote
// topologies are interchangeable; everything shard-internal (report caches,
// worker pools, indexes) stays behind it.
//
// Implementations must be safe for concurrent use.
type ShardBackend interface {
	// MatchStaged serves one request on the shard. staged is the router's
	// pre-pass result projected onto the shard's tree set (see
	// labeling.View), after which the shard runs mapping generation only;
	// the zero Staged asks for the shard's full pipeline. See
	// Service.MatchStaged.
	MatchStaged(ctx context.Context, personal *schema.Tree, opts pipeline.Options, staged Staged) (*pipeline.Report, error)

	// Stats returns a snapshot of the shard's instrumentation.
	Stats() Stats

	// Close releases the shard; matches after Close fail with an error.
	Close()
}

var _ ShardBackend = (*Service)(nil)

// ErrShardMismatch marks a shard error that is a topology
// MISCONFIGURATION — the shard serves a different partition, strategy or
// repository than the router expects (wrapped by
// shardrpc.ErrDescriptorMismatch). Unlike a crash or timeout it cannot
// heal by itself and the shard's answers would be wrong, so the
// partial-results fan-out refuses to degrade around it: a fan-out
// containing a mismatch error fails even with partial results enabled.
var ErrShardMismatch = errors.New("serve: shard topology mismatch")

// Router fans match requests out across repository shards — one
// ShardBackend per repository partition — and merges the per-shard ranked
// mapping lists into a single global report. Candidate matching is per-tree
// and clusters never span repository trees (cross-tree distance is
// infinite), so partitioning at tree granularity loses no candidate
// mappings, and the router reproduces the unsharded report exactly — for
// every clustering variant, rank for rank, ties included (golden- and
// property-tested).
//
// Every router indexes the repository exactly ONCE and sees its shards as
// labeling.Views over that shared index — a shard is a set of member trees
// plus an ID translation, not a cloned sub-repository, so resident index
// memory does not grow with the shard count. Every router runs a shared
// pre-pass: element matching — the O(|personal| × |repo|) cold-path stage —
// and clustering execute once against the full repository per pre-pass
// signature (personal schema + matcher + MinSim + clustering options),
// shared in flight like a Service's pipeline runs, projected onto each
// shard by pure filtering (matcher.Candidates.Restrict for the candidates;
// clusters never span trees, so each global cluster is handed wholesale to
// its owning shard) and cached, projected, under the unified memory
// governor once they succeed. A repeat only rebinds each shard's
// candidates to its own personal tree. Shards then run only mapping
// generation, via ShardBackend.MatchStaged.
// The projection is exact, and because clustering is global the k-means
// variants produce the SAME clusters as an unsharded run.
//
// Create with NewRouterFromRepository, NewRouterWithPartition or
// NewRouterWithShardBackends and release with Close. A Router is safe for
// use from many goroutines.
type Router struct {
	shards  []ShardBackend
	local   bool                 // the shards are this process's own services (NewRouterWithPartition), not external backends
	shardOf map[*schema.Tree]int // routes clusters and mappings to their shard
	once    sync.Once
	closed  atomic.Bool
	partial bool // Config.PartialResults: opt-in partial-results fan-out

	// Pre-pass state.
	fullRunner     *pipeline.Runner // shares the one index with the shard views
	views          []*labeling.View // per shard: the view its backend serves
	gov            *memGovernor     // unified cache governor shared with the local shards
	prepass        *cacheSpace      // finished pre-pass entries by prepassSignature
	prepassFlight  *flightGroup[*prepassEntry]
	prepassSem     chan struct{} // bounds concurrent pre-pass executions to the shard worker budget
	maxSchemaNodes int           // mirror of the shard services' guard

	// Router-level instrumentation: work and rejections that happen above
	// the shards on the pre-pass path and would otherwise be invisible in
	// every per-shard snapshot. Folded into Stats().
	prepassRuns   atomic.Int64 // full-repository pre-pass executions
	rejected      atomic.Int64 // requests refused before reaching any shard
	errored       atomic.Int64 // requests failed during the pre-pass
	partialMerges atomic.Int64 // fan-outs served as Incomplete merges
	healthSkips   atomic.Int64 // shards skipped by the fan-out as unhealthy (no request sent)

	// Router-level stage histograms (folded into Stats().Stages):
	// pre-pass executions, fan-out wall time, merge time.
	stPrepass histogram
	stFanout  histogram
	stMerge   histogram
}

// NewRouterFromRepository partitions the repository into up to n shards
// with the DefaultPartitionStrategy; it is NewRouterWithPartition with the
// default strategy.
func NewRouterFromRepository(repo *schema.Repository, n int, cfg Config) *Router {
	return NewRouterWithPartition(repo, n, cfg, DefaultPartitionStrategy)
}

// NewRouterWithPartition partitions the repository with the given strategy
// (see PartitionStrategy) into shard VIEWS over one shared labelling index
// and starts one Service per view. When cfg.Workers is 0 each shard gets
// GOMAXPROCS divided by the shard count (at least 1), so the default total
// worker budget matches an unsharded Service instead of multiplying by n.
//
// The router also owns the unified memory governor: every shard's report
// cache and the pre-pass cache charge into one byte budget
// (cfg.CacheBytes). cfg.PartialResults opts into the partial-results
// fan-out (see Match).
func NewRouterWithPartition(repo *schema.Repository, n int, cfg Config, strategy PartitionStrategy) *Router {
	ix := labeling.NewIndex(repo)
	ni := matcher.NewNameIndex(repo)
	views := PartitionRepositoryViews(ix, n, strategy)
	if cfg.Workers == 0 && len(views) > 1 {
		cfg.Workers = runtime.GOMAXPROCS(0) / len(views)
		if cfg.Workers < 1 {
			cfg.Workers = 1
		}
	}
	gov := newGovernor(cfg.CacheBytes)
	shardCfg := cfg
	shardCfg.gov = gov
	locals := make([]*Service, len(views))
	backends := make([]ShardBackend, len(views))
	for i, v := range views {
		locals[i] = New(pipeline.NewViewRunnerWithNameIndex(v, ni), shardCfg)
		backends[i] = locals[i]
	}
	// The pre-pass runs on request goroutines (it must complete even when
	// its leader's own shard work would be queued); bound its concurrency
	// to the summed shard worker budget so a burst of distinct cold
	// requests cannot run more CPU-bound matching than the operator sized
	// the service for.
	r := newRouter(ix, ni, views, backends, gov, cfg, cfg.withDefaults().Workers*len(views))
	// One EngineStats across the pre-pass runner and every shard runner, so
	// generation counters accumulate into a single figure per repository
	// generation (the NameIndex kernel-counter discipline). With the one
	// index, name index and governor above, every shared field of a shard's
	// Stats is then the router's own figure.
	r.local = true
	for _, s := range locals {
		s.runner.ShareGenStats(r.fullRunner.GenStats())
	}
	return r
}

// NewRouterWithShardBackends assembles a router over externally built shard
// backends — shardrpc.ReplicaSet clients for shards hosted in other
// processes, or test stubs. Their caches and indexes are not this router's:
// the stats rollup adds their shared figures on top of its own. ix must be the
// labelling index of the full repository and views[i] the shard view
// backend i serves (the router routes clusters and rewrites by view
// membership, and the views' tree descriptors are the backends' wire ID
// space). The router takes ownership of the backends (Close closes them)
// and — because remote shards burn no local CPU — bounds pre-pass
// concurrency to one local worker budget instead of the summed per-shard
// budgets. It panics when views and backends disagree in length or are
// empty.
func NewRouterWithShardBackends(ix *labeling.Index, views []*labeling.View, backends []ShardBackend, cfg Config) *Router {
	if len(backends) == 0 || len(views) != len(backends) {
		panic(fmt.Sprintf("serve: NewRouterWithShardBackends: %d views for %d backends", len(views), len(backends)))
	}
	return newRouter(ix, matcher.NewNameIndex(ix.Repository()), views, backends,
		newGovernor(cfg.CacheBytes), cfg, cfg.withDefaults().Workers)
}

// newRouter wires the one topology: backends[i] serves views[i], the
// pre-pass runs on a full-repository runner over ix and ni with its cache
// under gov, and prepassConc bounds concurrent pre-pass executions.
func newRouter(ix *labeling.Index, ni *matcher.NameIndex, views []*labeling.View, backends []ShardBackend, gov *memGovernor, cfg Config, prepassConc int) *Router {
	r := &Router{
		shards:         append([]ShardBackend(nil), backends...),
		shardOf:        make(map[*schema.Tree]int),
		fullRunner:     pipeline.NewRunnerFromIndexes(ix, ni),
		views:          views,
		gov:            gov,
		partial:        cfg.PartialResults,
		prepass:        gov.space(prepassCacheSize),
		prepassFlight:  newFlightGroup[*prepassEntry](),
		prepassSem:     make(chan struct{}, prepassConc),
		maxSchemaNodes: cfg.withDefaults().MaxSchemaNodes,
	}
	for i, v := range views {
		for _, t := range v.Trees() {
			r.shardOf[t] = i
		}
	}
	return r
}

// Match fans the request out to every shard concurrently and merges the
// per-shard reports into one global report: mappings merged in Rank order
// and truncated to opts.TopN, partial mappings in RankPartials order,
// counters summed, stage times reported as the slowest shard's (the shards
// run concurrently). ctx bounds the whole fan-out; each shard honours it
// exactly as Service.Match does.
//
// If any shard fails — its deadline expired, the service closed, the
// request was rejected — Match returns that shard's error rather than a
// silently incomplete merge: a report missing one shard's mappings would
// present a wrong top-N as authoritative. Shards that already completed
// contribute their reports to their own caches, so a retry is cheap.
// With partial results enabled (Config.PartialResults) a partially failed
// fan-out instead returns the successful shards' merge marked Incomplete
// with per-shard errors —
// unless ctx itself has expired, every shard failed, or a shard reported
// a topology mismatch (ErrShardMismatch), which still error. A failed
// pre-pass fails the request in both modes: the shards would run the same
// matching and clustering on the same input and fail the same way.
func (r *Router) Match(ctx context.Context, personal *schema.Tree, opts pipeline.Options) (*pipeline.Report, error) {
	if r.closed.Load() {
		return nil, ErrClosed
	}
	if len(r.shards) == 1 {
		return r.shards[0].MatchStaged(ctx, personal, opts, Staged{})
	}

	// Pre-pass: validate cheaply (the rejections the shard services would
	// issue anyway — matching and clustering an invalid request would burn
	// the cold-path stages for nothing), run element matching + clustering
	// once against the full repository, project both per shard.
	if personal == nil || personal.Root() == nil {
		r.rejected.Add(1)
		return nil, errors.New("serve: nil personal schema")
	}
	if r.maxSchemaNodes > 0 && personal.Len() > r.maxSchemaNodes {
		r.rejected.Add(1)
		return nil, fmt.Errorf("serve: %w: %d nodes > limit %d", ErrSchemaTooLarge, personal.Len(), r.maxSchemaNodes)
	}
	if err := pipeline.CheckRequest(personal, opts); err != nil {
		r.rejected.Add(1)
		return nil, err
	}
	_, psp := trace.StartSpan(ctx, "prepass")
	e, err := r.runPrepass(ctx, personal, opts)
	if err != nil {
		setSpanError(psp, err)
	}
	psp.End()
	if err != nil {
		r.errored.Add(1)
		return nil, err
	}
	// The entry is already projected per shard. A cache hit may carry an
	// earlier request's personal-tree instance; equal pre-pass signatures
	// guarantee structural identity, so rebind each shard's candidates to
	// this request's tree (O(|personal|), candidate slices shared).
	staged := make([]Staged, len(e.shards))
	for i, st := range e.shards {
		st.Cands = st.Cands.Rebind(personal)
		staged[i] = st
	}
	rep, err := r.fanOut(ctx, personal, opts, staged)
	if err != nil {
		return nil, err
	}
	// Shard reports carry zero match/cluster times (those stages ran
	// here); account the pre-pass as the merged report's stage durations.
	// A cache hit reports the original run's durations, mirroring how
	// cached reports keep their timings.
	if e.matchDur > rep.MatchTime {
		rep.MatchTime = e.matchDur
	}
	if e.clusterDur > rep.ClusterTime {
		rep.ClusterTime = e.clusterDur
	}
	return rep, nil
}

// MatchJSON implements Backend: Match, then one rendering of the merged
// report. The router caches no merged reports, so nothing is kept — the
// shards' caches hold the per-shard reports the merge is rebuilt from.
func (r *Router) MatchJSON(ctx context.Context, personal *schema.Tree, opts pipeline.Options) ([]byte, error) {
	rep, err := r.Match(ctx, personal, opts)
	if err != nil {
		return nil, err
	}
	return AppendReportJSON(nil, personal, rep), nil
}

// runPrepass returns the full-repository matching + clustering result for
// the request: the cached entry, or one run per pre-pass signature shared
// through prepassFlight. Only a successful run is cached; a failed one
// fails its waiters and nothing else. Followers whose own context expires
// leave without abandoning the shared run; followers that inherit another
// caller's context error retry with their own live context, as in
// Service.match.
func (r *Router) runPrepass(ctx context.Context, personal *schema.Tree, opts pipeline.Options) (*prepassEntry, error) {
	key := prepassSignature(personal, opts)
	for {
		if v, ok := r.prepass.get(key); ok {
			return v.(*prepassEntry), nil
		}
		// The pre-pass runs on its leader's goroutine and is not
		// cancellable, so the flight's run context has no owner to derive
		// from.
		c, leader := r.prepassFlight.join(key, context.Background())
		if leader {
			// A run that finished between the miss and the join cached its
			// entry before freeing the key: look again before computing.
			var e *prepassEntry
			var err error
			if v, ok := r.prepass.get(key); ok {
				e = v.(*prepassEntry)
			} else if e, err = r.computePrepass(ctx, personal, opts); err == nil {
				r.prepass.put(key, e, prepassEntryBytes(e))
			}
			r.prepassFlight.finish(key, c, e, err)
			return e, err
		}
		select {
		case <-c.done:
		case <-ctx.Done():
			r.prepassFlight.leave(key, c)
			return nil, ctx.Err()
		}
		if c.err != nil && ctxError(c.err) && ctx.Err() == nil {
			continue // inherited another caller's expiry; retry fresh
		}
		return c.val, c.err
	}
}

// computePrepass runs element matching and clustering against the full
// repository and projects the result onto the shards. The work is
// CPU-bound and runs on the caller's goroutine, so
// it first takes a prepassSem slot — sized to the shard worker budget —
// and gives up with the context error if ctx ends while it waits. A panic
// comes back as an error, with the slot released.
func (r *Router) computePrepass(ctx context.Context, personal *schema.Tree, opts pipeline.Options) (e *prepassEntry, err error) {
	// Check the context before the select: with a free slot AND an expired
	// context both ready, select would choose arbitrarily, and an
	// already-dead request must never start the computation.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case r.prepassSem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-r.prepassSem }()
	defer recoverRun(&err)
	m := opts.Matcher
	if m == nil {
		m = matcher.NameMatcher{}
	}
	e = &prepassEntry{}
	t0 := time.Now()
	cands := r.fullRunner.MatchCandidates(personal, m, matcher.Config{MinSim: opts.MinSim})
	e.matchDur = time.Since(t0)
	t1 := time.Now()
	clusters, iterations, err := pipeline.ComputeClusters(r.fullRunner.Index(), cands, opts)
	e.clusterDur = time.Since(t1)
	r.prepassRuns.Add(1)
	r.stPrepass.observe(e.matchDur + e.clusterDur)
	if err != nil {
		return nil, err
	}
	e.shards = r.project(cands, clusters, iterations)
	return e, nil
}

// project splits one full-repository pre-pass result into the per-shard
// projections, each with a fresh digest cell. Shards are views of the same
// repository the pre-pass matched against, so projection is pure
// filtering: candidates keep their original node objects and order, and
// since clusters never span trees, each global cluster is handed wholesale
// to the one shard that owns its tree (shared, read-only).
func (r *Router) project(cands *matcher.Candidates, clusters []*cluster.Cluster, iterations int) []Staged {
	staged := make([]Staged, len(r.views))
	for i, v := range r.views {
		staged[i] = Staged{Cands: cands.Restrict(v.Contains), Iterations: iterations, Digest: new(atomic.Pointer[string])}
	}
	for _, cl := range clusters {
		if cl.Len() == 0 {
			continue
		}
		i, ok := r.shardOf[cl.Elements[0].Node.Tree()]
		if !ok {
			continue // defensive: a cluster outside the partition cannot be served
		}
		staged[i].Clusters = append(staged[i].Clusters, cl)
	}
	return staged
}

// fanOut sends the request to every shard concurrently, each with its
// pre-staged slice, and merges the per-shard reports. Under strict routing
// (the default) any shard error fails the request; with partial results
// enabled, a partially failed fan-out merges the shards that succeeded and
// marks the report Incomplete with the per-shard errors.
func (r *Router) fanOut(ctx context.Context, personal *schema.Tree, opts pipeline.Options, staged []Staged) (*pipeline.Report, error) {
	fanStart := time.Now()
	fctx, fsp := trace.StartSpan(ctx, "fanout")
	defer fsp.End()
	reps := make([]*pipeline.Report, len(r.shards))
	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for i, s := range r.shards {
		// Control-plane skip: under partial results a shard whose backend
		// reports itself unhealthy (every replica down, per its background
		// monitors) is skipped WITHOUT sending a request — the fan-out pays
		// nothing instead of a doomed per-shard timeout. Strict routing
		// still attempts it: the request must fail anyway if the shard is
		// truly down, and a just-recovered shard deserves the attempt.
		if r.partial {
			if hr, ok := s.(HealthReporter); ok && !hr.Healthy() {
				errs[i] = fmt.Errorf("serve: shard %d skipped: %w", i, ErrShardUnhealthy)
				r.healthSkips.Add(1)
				continue
			}
		}
		wg.Add(1)
		go func(i int, s ShardBackend) {
			defer wg.Done()
			sctx, ssp := trace.StartSpan(fctx, "shard")
			ssp.SetAttrInt("shard", int64(i))
			reps[i], errs[i] = s.MatchStaged(sctx, personal, opts, staged[i])
			if errs[i] != nil {
				ssp.SetAttr("error", errs[i].Error())
			}
			ssp.End()
		}(i, s)
	}
	wg.Wait()
	r.stFanout.observe(time.Since(fanStart))
	var ok []*pipeline.Report // successful reports, in shard order
	var failed []pipeline.ShardError
	var firstErr error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, pipeline.ShardError{Shard: i, Err: err.Error()})
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ok = append(ok, reps[i])
	}
	if firstErr != nil {
		// A degraded merge is for SHARD failures. When the request's own
		// context has expired, the caller asked to stop — answering 200
		// Incomplete would convert every client timeout or disconnect
		// into a degraded success. A topology mismatch is not a failure
		// but a misconfiguration whose answers would be wrong: never
		// degrade around it.
		for _, err := range errs {
			if err != nil && errors.Is(err, ErrShardMismatch) {
				return nil, err
			}
		}
		if !r.partial || len(ok) == 0 || ctx.Err() != nil {
			return nil, firstErr
		}
		rep := r.merge(fctx, ok, opts.TopN)
		rep.Incomplete = true
		rep.ShardErrors = failed
		r.partialMerges.Add(1)
		return rep, nil
	}
	return r.merge(fctx, reps, opts.TopN), nil
}

// merge wraps mergeReports with the router's merge-stage instrumentation.
func (r *Router) merge(ctx context.Context, reps []*pipeline.Report, topN int) *pipeline.Report {
	t0 := time.Now()
	_, msp := trace.StartSpan(ctx, "merge")
	rep := mergeReports(reps, topN)
	msp.End()
	r.stMerge.observe(time.Since(t0))
	return rep
}

// mergeReports combines per-shard reports of one fanned-out request. Node
// and cluster IDs are global (every shard is a view over one index and
// searches whole clusters of one pre-pass), so ranking by the generator's
// own total orders gives the unsharded report's mappings and partials, in
// its order.
func mergeReports(reps []*pipeline.Report, topN int) *pipeline.Report {
	merged := &pipeline.Report{Variant: reps[0].Variant}
	lists := make([][]mapgen.Mapping, len(reps))
	weightedAvg := 0.0
	for i, rep := range reps {
		lists[i] = rep.Mappings
		merged.MappingElements += rep.MappingElements
		merged.Clusters += rep.Clusters
		merged.UsefulClusters += rep.UsefulClusters
		weightedAvg += rep.AvgElementsPerUsefulCluster * float64(rep.UsefulClusters)
		merged.ClusterSizes = append(merged.ClusterSizes, rep.ClusterSizes...)
		if rep.Iterations > merged.Iterations {
			merged.Iterations = rep.Iterations
		}
		merged.Counters.Add(rep.Counters)
		merged.Partials = append(merged.Partials, rep.Partials...)
		if rep.MatchTime > merged.MatchTime {
			merged.MatchTime = rep.MatchTime
		}
		if rep.ClusterTime > merged.ClusterTime {
			merged.ClusterTime = rep.ClusterTime
		}
		if rep.GenTime > merged.GenTime {
			merged.GenTime = rep.GenTime
		}
		if rep.FirstGoodAfter > 0 &&
			(merged.FirstGoodAfter == 0 || rep.FirstGoodAfter < merged.FirstGoodAfter) {
			merged.FirstGoodAfter = rep.FirstGoodAfter
		}
	}
	if merged.UsefulClusters > 0 {
		merged.AvgElementsPerUsefulCluster = weightedAvg / float64(merged.UsefulClusters)
	}
	merged.Mappings = mapgen.MergeRanked(lists, topN)
	mapgen.RankPartials(merged.Partials)
	return merged
}

// RewriteQuery translates a personal-schema query through a mapping
// discovered by Match. The router rewrites locally — the mapping's image
// nodes are its own repository nodes, so no shard round-trip is needed,
// remote shards included.
func (r *Router) RewriteQuery(q string, personal *schema.Tree, mp mapgen.Mapping) (string, error) {
	if len(mp.Images) == 0 {
		return "", errors.New("serve: empty mapping")
	}
	if _, ok := r.shardOf[mp.Images[0].Tree()]; !ok {
		return "", errors.New("serve: mapping does not belong to this router's shards")
	}
	parsed, err := query.Parse(q)
	if err != nil {
		return "", err
	}
	return query.Rewrite(parsed, personal, mp, r.fullRunner.Index())
}

// Stats returns the rollup of Snapshot.
func (r *Router) Stats() Stats {
	total, _ := r.Snapshot()
	return total
}

// Snapshot implements Backend: the rollup and the per-shard snapshots it
// was computed from, taken once. The rollup is MergeStats of the shards plus
// what only the router knows: its own counters and stage histograms — the
// pre-pass, and requests rejected or failed above the shards — its pre-pass
// cache's bytes, and the shared fields (see metrics), read once from the
// router's own index, name index, generation counters and governor. In-process
// shards run on exactly those resources, so a sharded rollup equals the
// unsharded figure; external shards keep their own in their own processes,
// and their snapshots' figures add on top for a fleet-wide total.
//
// Shard snapshots are taken concurrently: a remote shard's Stats is a
// network fetch with its own timeout, and a scrape of a fleet with several
// dead shards must pay that timeout once, not once per dead shard.
func (r *Router) Snapshot() (Stats, []Stats) {
	shards := make([]Stats, len(r.shards))
	var wg sync.WaitGroup
	wg.Add(len(r.shards))
	for i, s := range r.shards {
		go func(i int, s ShardBackend) {
			defer wg.Done()
			shards[i] = s.Stats()
		}(i, s)
	}
	wg.Wait()

	total := MergeStats(shards...)
	total.CandidatePrePass += r.prepassRuns.Load()
	rejected, errored := r.rejected.Load(), r.errored.Load()
	total.Requests += rejected + errored
	total.Rejected += rejected
	total.Errors += errored
	total.PartialResults += r.partialMerges.Load()
	total.HealthSkips += r.healthSkips.Load()
	total.CacheBytes += r.prepass.residentBytes()
	total.Stages = mergeStages(total.Stages, r.routerStages())
	own, remote := residentStats(r.gov, r.fullRunner), shards
	if r.local {
		remote = nil // in-process shards report own's resources, not further ones
	}
	rollupShared(&total, &own, remote)
	return total, shards
}

// routerStages snapshots the router-level stage histograms (stages that
// never ran are absent, mirroring counters.snapshotStages).
func (r *Router) routerStages() map[string]LatencyStats {
	m := make(map[string]LatencyStats, 3)
	addStage(m, StagePrePass, &r.stPrepass)
	addStage(m, StageFanout, &r.stFanout)
	addStage(m, StageMerge, &r.stMerge)
	return m
}

// RepositoryStats aggregates the shard views' served-tree statistics: tree
// and node counts summed, extrema taken across shards. Shard backends,
// remote ones included, never need to answer repository questions.
func (r *Router) RepositoryStats() schema.Stats {
	var out schema.Stats
	for i, v := range r.views {
		st := v.Stats()
		out.Trees += st.Trees
		out.Nodes += st.Nodes
		if st.MaxDepth > out.MaxDepth {
			out.MaxDepth = st.MaxDepth
		}
		if st.MaxTree > out.MaxTree {
			out.MaxTree = st.MaxTree
		}
		if i == 0 || st.MinTree < out.MinTree {
			out.MinTree = st.MinTree
		}
	}
	return out
}

// NumShards reports the fan-out width.
func (r *Router) NumShards() int { return len(r.shards) }

// Close closes every shard concurrently and blocks until all have drained.
// It is idempotent; Match calls after Close return ErrClosed.
func (r *Router) Close() {
	r.once.Do(func() {
		// Mark closed before draining the shards so Match rejects new
		// requests up front instead of burning a candidate pre-pass whose
		// fan-out is doomed to ErrClosed.
		r.closed.Store(true)
		var wg sync.WaitGroup
		wg.Add(len(r.shards))
		for _, s := range r.shards {
			go func(s ShardBackend) {
				defer wg.Done()
				s.Close()
			}(s)
		}
		wg.Wait()
	})
}
