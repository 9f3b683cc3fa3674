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
	// summed, so one fanned-out request counts once per shard asked.
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
	// Service.MatchStaged. The router calls it only for a shard whose
	// projection can add to the report (see Router); an idle shard is not
	// asked, so its failure fails nothing. The router's staged projections
	// carry a Release the backend must call (see Staged for when).
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
// mappings: the merged mappings and partials are the unsharded report's
// exactly — for every clustering variant, rank for rank, ties included
// (golden- and property-tested) — as are MappingElements, Clusters,
// UsefulClusters, SearchSpace and ClusterSizes (in global cluster order).
// When a top-N request's useful clusters sit on more than one busy shard,
// each shard's search prunes against its own floor, so PartialMappings
// (partial_mappings_generated), CompleteMappings, Found and FirstGoodAfter
// depend on the topology.
//
// A router answers a repeat from its own report cache of complete merges (a
// Service's cache type, governor and Config.CacheSize), asking no shard —
// except a one-shard router over an in-process Service, which answers
// through that service's own cache instead of caching each report twice.
//
// Every router indexes the repository exactly ONCE and sees its shards as
// labeling.Views over that shared index — a shard is a set of member trees
// plus an ID translation, not a cloned sub-repository, so resident index
// memory does not grow with the shard count. A request the report cache
// cannot answer runs a shared pre-pass: element matching — the
// O(|personal| × |repo|) cold-path stage — and clustering execute once
// against the full repository per pre-pass signature (personal schema +
// matcher + MinSim + clustering options), shared in flight like a
// Service's pipeline runs and projected onto each shard by pure filtering
// (clusters never span trees, so each global cluster is handed wholesale to
// its owning shard; an in-process shard gets a copy of its own candidates,
// matcher.Candidates.Restrict, and an external backend reads its own out of
// the whole set). The pre-pass is not cached: a flight's followers only
// rebind the candidates to their own personal tree, and its pooled storage
// goes back when the last of them, and the last shard reading it, lets go
// (see Staged). Shards then run only mapping
// generation, via ShardBackend.MatchStaged, and only those that can add to
// the report: only a useful cluster (a candidate for every personal node)
// yields a complete mapping, so a shard whose projection holds none — under
// IncludePartials, no cluster at all — is idle. It is not asked; the router
// runs the shard's generation stage over that projection itself. An idle
// shard never fails a request nor makes it Incomplete, dead or alive.
// The projection is exact, and because clustering is global the k-means
// variants produce the SAME clusters as an unsharded run.
//
// Create with NewRouterFromRepository, NewRouterWithPartition or
// NewRouterWithShardBackends and release with Close. A Router is safe for
// use from many goroutines.
type Router struct {
	shards  []ShardBackend
	local   bool                 // the shards are this process's own services (NewRouterWithPartition), not external backends
	single  *Service             // the one in-process shard of a one-shard router, which caches for it
	shardOf map[*schema.Tree]int // routes clusters and mappings to their shard
	once    sync.Once
	closed  atomic.Bool
	partial bool         // Config.PartialResults: opt-in partial-results fan-out
	gov     *memGovernor // unified cache governor shared with the local shards
	cache   *reportCache // complete merged reports (and renderings) by Signature

	// Pre-pass state.
	fullRunner     *pipeline.Runner // shares the one index with the shard views
	views          []*labeling.View // per shard: the view its backend serves
	prepassFlight  *flightGroup[*prepassEntry]
	prepassSem     chan struct{} // bounds concurrent pre-pass executions to the shard worker budget
	maxSchemaNodes int           // mirror of the shard services' guard

	// Router-level instrumentation: work, hits and rejections that happen
	// above the shards and would otherwise be invisible in every per-shard
	// snapshot. Folded into Stats().
	hits          atomic.Int64 // requests answered from the report cache
	hitLat        histogram    // their latencies
	prepassRuns   atomic.Int64 // full-repository pre-pass executions
	rejected      atomic.Int64 // requests refused before reaching any shard
	errored       atomic.Int64 // requests failed during the pre-pass
	partialMerges atomic.Int64 // fan-outs served as Incomplete merges
	healthSkips   atomic.Int64 // shards skipped by the fan-out as unhealthy (no request sent)
	idleSkips     atomic.Int64 // shards not asked because they could add nothing (report built here)

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
// cache and the router's own charge into one byte budget
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
	if len(locals) == 1 {
		r.single = locals[0]
	}
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
// report cache charges gov, the pre-pass runs on a full-repository runner
// over ix and ni, and prepassConc bounds concurrent pre-pass executions.
func newRouter(ix *labeling.Index, ni *matcher.NameIndex, views []*labeling.View, backends []ShardBackend, gov *memGovernor, cfg Config, prepassConc int) *Router {
	r := &Router{
		shards:         append([]ShardBackend(nil), backends...),
		shardOf:        make(map[*schema.Tree]int),
		fullRunner:     pipeline.NewRunnerFromIndexes(ix, ni),
		views:          views,
		gov:            gov,
		cache:          newReportCache(gov, cfg.withDefaults().CacheSize),
		partial:        cfg.PartialResults,
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

// Match answers a repeat from the report cache; otherwise it fans the
// request out concurrently to every shard that can add to it (see Router;
// an idle shard's report is built here) and merges the per-shard reports
// into one global report: mappings merged in Rank order and truncated to
// opts.TopN, partial mappings in RankPartials order, counters summed, stage
// times reported as the slowest shard's (the shards run concurrently). ctx
// bounds the whole fan-out; each shard honours it exactly as Service.Match
// does.
//
// If any shard asked fails — its deadline expired, the service closed, the
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
// matching and clustering on the same input and fail the same way. The
// returned Report may be shared and must be treated as read-only.
func (r *Router) Match(ctx context.Context, personal *schema.Tree, opts pipeline.Options) (*pipeline.Report, error) {
	if r.single != nil {
		return r.single.Match(ctx, personal, opts)
	}
	rep, _, err := r.match(ctx, personal, opts)
	return rep, err
}

// MatchJSON implements Backend: Match returning the merged report's
// rendering, kept in its cache entry as in Service.MatchJSON. The bytes are
// shared and must be treated as read-only.
func (r *Router) MatchJSON(ctx context.Context, personal *schema.Tree, opts pipeline.Options) ([]byte, error) {
	if r.single != nil {
		return r.single.MatchJSON(ctx, personal, opts)
	}
	rep, hit, err := r.match(ctx, personal, opts)
	if err != nil {
		return nil, err
	}
	if hit.body != nil {
		return hit.body, nil
	}
	// An uncached report has no key, so Attach hands its rendering back.
	return r.cache.Attach(hit.key, rep, renderBody(personal, rep)), nil
}

// match is the shared body of Match and MatchJSON; the key is empty for a
// report not cached here (an Incomplete merge).
func (r *Router) match(ctx context.Context, personal *schema.Tree, opts pipeline.Options) (*pipeline.Report, cacheRef, error) {
	if r.closed.Load() {
		return nil, cacheRef{}, ErrClosed
	}

	// Validate cheaply first: the rejections the shard services would
	// make anyway, before a lookup or a pre-pass.
	if personal == nil || personal.Root() == nil {
		r.rejected.Add(1)
		return nil, cacheRef{}, errors.New("serve: nil personal schema")
	}
	if r.maxSchemaNodes > 0 && personal.Len() > r.maxSchemaNodes {
		r.rejected.Add(1)
		return nil, cacheRef{}, fmt.Errorf("serve: %w: %d nodes > limit %d", ErrSchemaTooLarge, personal.Len(), r.maxSchemaNodes)
	}
	if err := pipeline.CheckRequest(personal, opts); err != nil {
		r.rejected.Add(1)
		return nil, cacheRef{}, err
	}

	start := time.Now()
	key := Signature(personal, opts)
	rep, body, ok := r.cache.Get(key)
	if ok {
		r.hits.Add(1)
		r.hitLat.observe(time.Since(start))
		return rep, cacheRef{key, body}, nil
	}
	var err error
	if len(r.shards) == 1 {
		// One external shard holds the whole repository: it runs its own
		// pipeline, and there is nothing to pre-pass or merge.
		rep, err = r.shards[0].MatchStaged(ctx, personal, opts, Staged{})
	} else {
		rep, err = r.matchSharded(ctx, personal, opts)
	}
	if err != nil {
		return nil, cacheRef{}, err
	}
	if rep.Incomplete {
		return rep, cacheRef{}, nil
	}
	// Identical requests that missed together each merged a report of
	// their own (timings differ): the first one cached answers them all.
	rep, body = r.cache.Add(key, rep)
	return rep, cacheRef{key, body}, nil
}

// matchSharded runs the pre-pass for a request the cache could not answer,
// fans it out and merges the shards' reports.
func (r *Router) matchSharded(ctx context.Context, personal *schema.Tree, opts pipeline.Options) (*pipeline.Report, error) {
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
	defer e.drop()
	rep, err := r.fanOut(ctx, personal, opts, e)
	if err != nil {
		return nil, err
	}
	// Shard reports carry zero match/cluster times (those stages ran
	// here); account the pre-pass as the merged report's stage durations.
	// A follower reports its leader's run's durations.
	if e.matchDur > rep.MatchTime {
		rep.MatchTime = e.matchDur
	}
	if e.clusterDur > rep.ClusterTime {
		rep.ClusterTime = e.clusterDur
	}
	return rep, nil
}

// prepassEntry is one pre-pass flight's result, projected per shard: the
// candidates on its trees and the clusters that live there. It owns the
// pooled storage behind them — the candidate set and the clustering
// result — and counts its holders: each caller the flight hands it to (see
// holder), and each busy shard a fan-out passes a projection to
// (Staged.Release). The last to let go hands the storage back to the pools.
type prepassEntry struct {
	cands      *matcher.Candidates // the whole candidate set, bound to the flight leader's tree
	shards     []Staged            // per shard: its clusters, and an in-process shard's own candidates
	res        *cluster.Result     // the pre-pass clusters, in global ID order
	matchDur   time.Duration
	clusterDur time.Duration

	refs    atomic.Int32
	release func() // drop, as the one func value every shard hold shares
}

func (e *prepassEntry) hold(n int32) { e.refs.Add(n) }

// drop lets go of one hold; the last hands the storage back.
func (e *prepassEntry) drop() {
	if e.refs.Add(-1) != 0 {
		return
	}
	e.cands.Release()
	e.res.Release()
}

// runPrepass returns the full-repository matching + clustering result for
// the request, held once for the caller (drop it when done): one run per
// pre-pass signature in flight, shared through prepassFlight and kept by
// nothing else. Followers whose own context expires leave without
// abandoning the shared run; followers that inherit another caller's
// context error retry with their own live context, as in Service.match.
func (r *Router) runPrepass(ctx context.Context, personal *schema.Tree, opts pipeline.Options) (*prepassEntry, error) {
	key := prepassSignature(personal, opts)
	for {
		// The pre-pass runs on its leader's goroutine and is not
		// cancellable, so the flight's run context has no owner to derive
		// from.
		c, leader := r.prepassFlight.join(key, context.Background())
		if leader {
			e, err := r.computePrepass(ctx, personal, opts)
			r.prepassFlight.finish(key, c, e, err)
			return e, err
		}
		select {
		case <-c.done:
		case <-ctx.Done():
			if r.prepassFlight.leave(key, c) && c.err == nil {
				c.val.drop() // handed the entry as the flight finished
			}
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
	e.release = e.drop
	t0 := time.Now()
	cands := r.fullRunner.MatchCandidates(personal, m, matcher.Config{MinSim: opts.MinSim})
	e.matchDur = time.Since(t0)
	t1 := time.Now()
	e.res, err = pipeline.ClusterCandidates(r.fullRunner.Index(), cands, opts)
	e.clusterDur = time.Since(t1)
	r.prepassRuns.Add(1)
	r.stPrepass.observe(e.matchDur + e.clusterDur)
	if err != nil {
		cands.Release()
		return nil, err
	}
	e.cands = cands
	e.shards = r.project(cands, e.res.Clusters, e.res.Iterations)
	return e, nil
}

// project splits one full-repository pre-pass result into the per-shard
// projections. Shards are views of the same repository the pre-pass matched
// against, so projection is pure filtering: candidates keep their original
// node objects and order, and since clusters never span trees, each global
// cluster is handed wholesale to the one shard that owns its tree (shared,
// read-only). Only an in-process shard gets a copy of its own candidates
// (Restrict); an external backend reads its own out of the whole set.
func (r *Router) project(cands *matcher.Candidates, clusters []*cluster.Cluster, iterations int) []Staged {
	staged := make([]Staged, len(r.views))
	for i, v := range r.views {
		staged[i].Iterations = iterations
		if r.local {
			staged[i].Cands = cands.Restrict(v.Contains)
		}
	}
	for _, cl := range clusters {
		if i, ok := r.clusterShard(cl); ok {
			staged[i].Clusters = append(staged[i].Clusters, cl)
		}
	}
	return staged
}

// clusterShard returns the shard that owns a non-empty cluster's tree.
func (r *Router) clusterShard(cl *cluster.Cluster) (int, bool) {
	if cl.Len() == 0 {
		return 0, false
	}
	// A cluster outside the partition cannot be served (defensive).
	i, ok := r.shardOf[cl.Elements[0].Node.Tree()]
	return i, ok
}

// fanOut sends the request concurrently to every shard that is not idle,
// each with its projection from e and a hold on e, builds the idle shards'
// reports itself, and merges the per-shard reports. Under strict routing
// (the default) any shard error fails the request; with partial results
// enabled, a partially failed fan-out merges the shards that succeeded and
// marks the report Incomplete with the per-shard errors.
func (r *Router) fanOut(ctx context.Context, personal *schema.Tree, opts pipeline.Options, e *prepassEntry) (*pipeline.Report, error) {
	fanStart := time.Now()
	fctx, fsp := trace.StartSpan(ctx, "fanout")
	defer fsp.End()
	reps := make([]*pipeline.Report, len(r.shards))
	errs := make([]error, len(r.shards))
	full := cluster.FullMask(personal.Len())
	var whole *matcher.Candidates // e.cands rebound, once, for the busy external backends
	var wg sync.WaitGroup
	for i, s := range r.shards {
		st := e.shards[i]
		isIdle := idle(st.Clusters, full, opts.IncludePartials)
		// The entry is bound to the flight leader's personal tree; equal
		// pre-pass signatures guarantee structural identity, so rebind the
		// candidates to this request's tree (O(|personal|), candidate
		// slices shared). A shard's report counts and searches its own
		// candidates only, so a shard the router runs itself gets a copy of
		// them when it has none; a busy external backend reads its own out
		// of the whole set.
		switch {
		case st.Cands != nil:
			st.Cands = st.Cands.Rebind(personal)
		case isIdle:
			st.Cands = e.cands.Restrict(r.views[i].Contains).Rebind(personal)
		default:
			if whole == nil {
				whole = e.cands.Rebind(personal)
			}
			st.Cands = whole
		}
		// An idle shard is not asked: its report comes from the shard's
		// generation code over the same projection, run here.
		if isIdle {
			reps[i], errs[i] = r.runIdle(fctx, personal, opts, st)
			r.idleSkips.Add(1)
			continue
		}
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
		// The shard holds the projection until it calls Release, which may
		// be after MatchStaged returns.
		e.hold(1)
		st.Release = e.release
		wg.Add(1)
		go func(i int, s ShardBackend) {
			defer wg.Done()
			sctx, ssp := trace.StartSpan(fctx, "shard")
			ssp.SetAttrInt("shard", int64(i))
			reps[i], errs[i] = s.MatchStaged(sctx, personal, opts, st)
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
		rep.ClusterSizes = r.clusterSizes(e, errs)
		rep.Incomplete = true
		rep.ShardErrors = failed
		r.partialMerges.Add(1)
		return rep, nil
	}
	rep := r.merge(fctx, reps, opts.TopN)
	rep.ClusterSizes = r.clusterSizes(e, errs)
	return rep, nil
}

// clusterSizes lists the sizes of the clusters the shards that answered
// searched, in global cluster order — the order an unsharded report lists
// them in — rather than shard by shard.
func (r *Router) clusterSizes(e *prepassEntry, errs []error) []int {
	var sizes []int
	for _, cl := range e.res.Clusters {
		if i, ok := r.clusterShard(cl); ok && errs[i] == nil {
			if sizes == nil {
				sizes = make([]int, 0, len(e.res.Clusters))
			}
			sizes = append(sizes, cl.Len())
		}
	}
	return sizes
}

// idle reports whether a shard holding clusters can add nothing to a
// request: none is useful (covers full), or, when partial mappings are
// asked for, which come from the other clusters, there is none at all.
func idle(clusters []*cluster.Cluster, full uint64, partials bool) bool {
	if partials {
		return len(clusters) == 0
	}
	for _, cl := range clusters {
		if cl.Useful(full) {
			return false
		}
	}
	return true
}

// runIdle builds an idle shard's report on the router's full-repository
// runner: the generation stage a shard runs, over the same projection.
func (r *Router) runIdle(ctx context.Context, personal *schema.Tree, opts pipeline.Options, st Staged) (rep *pipeline.Report, err error) {
	defer recoverRun(&err)
	return r.fullRunner.RunWithClusters(ctx, personal, st.Cands, st.Clusters, st.Iterations, opts)
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
// its order. ClusterSizes are left to the caller, which knows the global
// cluster order (Router.clusterSizes).
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
// pre-pass, its cache hits, and requests rejected or failed above the
// shards — its report cache's bytes, and the shared fields (see metrics),
// read once from the router's own index, name index, generation counters
// and governor. In-process shards run on exactly those resources, so a
// sharded rollup equals the unsharded figure; external shards keep their
// own in their own processes, and their snapshots' figures add on top.
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
	rejected, errored, hits := r.rejected.Load(), r.errored.Load(), r.hits.Load()
	total.Requests += rejected + errored + hits
	total.CacheHits += hits
	mergeLatency(&total.Latency, r.hitLat.snapshot())
	total.Rejected += rejected
	total.Errors += errored
	total.PartialResults += r.partialMerges.Load()
	total.HealthSkips += r.healthSkips.Load()
	total.IdleSkips += r.idleSkips.Load()
	total.CacheBytes += r.cache.Bytes()
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
		// requests up front — cache hits included — instead of burning a
		// candidate pre-pass whose fan-out is doomed to ErrClosed.
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
