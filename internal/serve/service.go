package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"bellflower/internal/cluster"
	"bellflower/internal/mapgen"
	"bellflower/internal/matcher"
	"bellflower/internal/pipeline"
	"bellflower/internal/query"
	"bellflower/internal/schema"
	"bellflower/internal/trace"
)

// ErrClosed is returned by Match after Close.
var ErrClosed = errors.New("serve: service closed")

// ErrSchemaTooLarge is wrapped in the error returned when a personal
// schema exceeds Config.MaxSchemaNodes — or, with that limit raised or
// disabled, the pipeline's own pipeline.ErrSchemaTooLarge bound, which is
// this same value; match with errors.Is.
var ErrSchemaTooLarge = pipeline.ErrSchemaTooLarge

// Config sizes the service. The zero value picks sensible defaults; use a
// negative CacheSize or MaxSchemaNodes to disable that limit outright.
type Config struct {
	// Workers is the worker-pool size — the maximum number of pipeline
	// runs executing at once. Default: GOMAXPROCS.
	Workers int

	// QueueDepth bounds the run queue. A full queue applies backpressure:
	// leaders block (respecting their context) instead of piling up
	// unbounded work. Default: 4 × Workers.
	QueueDepth int

	// CacheSize is the report cache capacity in reports. Default 256;
	// negative disables caching. A sharded Router applies it to its own
	// cache of merged reports and to each in-process shard's.
	CacheSize int

	// CacheBytes bounds the unified cache memory in bytes: completed
	// reports — for a sharded router, its in-process shards' and its own
	// merged ones — are size-estimated and charged to one memory governor,
	// which evicts the globally least-recently-used entry when the budget
	// is exceeded. 0 or negative = no byte bound (entry-count caps still
	// apply).
	CacheBytes int64

	// PartialResults opts a sharded Router into partial-results fan-out:
	// when some (not all) shards fail, the merged report is built from
	// the shards that succeeded and marked Incomplete with per-shard
	// errors, instead of the whole request failing. Ignored by a plain
	// Service. See Router.Match.
	PartialResults bool

	// gov, when set by a Router, makes this service charge its report
	// cache into the router's shared memory governor instead of owning
	// one; CacheBytes is then the router's to interpret.
	gov *memGovernor

	// HealthInterval is the base period of the background health probes a
	// distributed router runs against each remote replica (jittered ±20%;
	// see HealthConfig). 0 picks the 5s default; negative disables
	// background probing entirely — replica health then moves only on
	// live-traffic transport errors and construction-time checks, so a
	// marked-down replica stays down for the process lifetime. Ignored by
	// in-process topologies.
	HealthInterval time.Duration

	// HealthFailures is the consecutive-failure threshold after which a
	// remote replica is marked unhealthy (probes and live-traffic
	// transport errors count alike). 0 picks the default (3). Ignored by
	// in-process topologies.
	HealthFailures int

	// MaxSchemaNodes rejects personal schemas with more nodes than this
	// before any work happens (the search space grows exponentially with
	// personal-schema size, so this is the service's overload guard).
	// Default 64; negative disables the check, leaving only the
	// pipeline's own 64-node bound (same ErrSchemaTooLarge).
	MaxSchemaNodes int

	// DefaultTimeout bounds requests whose context carries no deadline
	// and that miss the report cache (a hit starts no timer). 0: no bound.
	DefaultTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	switch {
	case c.CacheSize == 0:
		c.CacheSize = 256
	case c.CacheSize < 0:
		c.CacheSize = 0
	}
	switch {
	case c.MaxSchemaNodes == 0:
		c.MaxSchemaNodes = 64
	case c.MaxSchemaNodes < 0:
		c.MaxSchemaNodes = 0
	}
	return c
}

// Capacity is how many requests a service sized by c holds at once, running
// or queued (defaults applied): the bound batch fan-outs size themselves by.
func (c Config) Capacity() int {
	c = c.withDefaults()
	return c.Workers + c.QueueDepth
}

// Staged carries the stages that already ran upstream of a shard: the
// router's pre-pass matches and clusters once against the full repository
// and hands every shard its projection — the clusters that live on the
// shard's trees, and the candidates there. The router projects once, when
// it computes a pre-pass entry, and hands the same projection to every
// request the entry serves. The zero value means nothing is staged: the
// shard runs the full pipeline.
//
// Cands and Clusters are read-only to the receiver; Cands may be bound to a
// structurally identical personal tree (rebind with Candidates.Rebind). An
// in-process Service is handed exactly its own candidates (its runner
// rejects a foreign one). A router over external backends
// (NewRouterWithShardBackends) hands each the whole pre-pass candidate set
// instead, of which a backend reads only the candidates on its own trees:
// shardrpc's client encodes just those, as the shard's own restriction.
//
// Ownership: with Release nil, the caller keeps the projection valid for as
// long as anything the backend started may read it — in practice it never
// reuses the storage and leaves it to the collector. With Release set, the
// backend that receives the Staged holds the projection and calls Release
// exactly once, when nothing it started reads it any more: at once for a
// request answered without running it (a cache hit, a flight follower, a
// rejection), or when the worker that ran it finishes — which may be after
// MatchStaged has returned, because a caller whose context expires leaves
// while the run goes on. The caller must not reuse the storage before then.
// The router's pre-pass entry is such a caller: its storage goes back to
// the pools once every request it served and every shard it was handed to
// has let go. A shard server reading a full request does the same with the
// projection it decoded into pooled storage.
type Staged struct {
	// Cands is the element-matching result the projection was cut from;
	// nil means unstaged, and the other fields are then ignored.
	Cands *matcher.Candidates

	// Clusters are the clusters built from Cands that lie on this shard
	// (possibly none — a shard may hold no cluster of a query).
	Clusters []*cluster.Cluster

	// Iterations is the upstream clustering's iteration count, echoed into
	// the report.
	Iterations int

	// Release, when set, lets go of the backend's hold on the projection
	// (see Ownership above).
	Release func()
}

// release lets go of a hold on st's projection, if the caller handed one.
func (st Staged) release() {
	if st.Release != nil {
		st.Release()
	}
}

// task is one scheduled pipeline run: generation only over staged.Clusters
// (Runner.RunWithClusters) when a projection is staged, the full pipeline
// otherwise.
type task struct {
	key      string
	c        *call[*pipeline.Report]
	personal *schema.Tree
	opts     pipeline.Options
	staged   Staged

	// tctx carries the scheduling leader's trace position (and nothing
	// else): the worker adopts it onto the detached run context so
	// pipeline spans land in the request trace that started the run,
	// without inheriting the request's cancellation.
	tctx context.Context
}

// Service is a concurrent matching service over one indexed repository.
// It is safe for use from many goroutines; create with New and release
// with Close.
type Service struct {
	runner *pipeline.Runner
	cfg    Config

	queue  chan *task
	flight *flightGroup[*pipeline.Report]
	gov    *memGovernor
	cache  *reportCache
	ct     counters

	root   context.Context // service lifetime; parent of every run context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	once   sync.Once

	// beforeJoin, when set, runs between a request's cache miss and its
	// flight join: tests use it to land another request's whole run in
	// that window. Always nil outside tests.
	beforeJoin func()
}

// New starts a service around an existing runner (sharing its index).
func New(runner *pipeline.Runner, cfg Config) *Service {
	cfg = cfg.withDefaults()
	gov := cfg.gov
	if gov == nil {
		gov = newGovernor(cfg.CacheBytes)
	}
	root, cancel := context.WithCancel(context.Background())
	s := &Service{
		runner: runner,
		cfg:    cfg,
		queue:  make(chan *task, cfg.QueueDepth),
		flight: newFlightGroup[*pipeline.Report](),
		gov:    gov,
		cache:  newReportCache(gov, cfg.CacheSize),
		root:   root,
		cancel: cancel,
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// NewFromRepository indexes the repository and starts a service.
func NewFromRepository(repo *schema.Repository, cfg Config) *Service {
	return New(pipeline.NewRunner(repo), cfg)
}

// Repository returns the repository being served. For a view-backed shard
// this is the FULL shared repository (views do not clone trees).
func (s *Service) Repository() *schema.Repository { return s.runner.Repository() }

// Close stops the workers, cancels in-flight runs and fails queued
// requests with ErrClosed. It blocks until the workers have exited.
// Match calls after Close return ErrClosed.
func (s *Service) Close() {
	s.once.Do(func() {
		s.cancel()
		s.wg.Wait()
		// Fail whatever was still queued; no worker will take it now.
		for {
			select {
			case t := <-s.queue:
				s.flight.finish(t.key, t.c, nil, ErrClosed)
				t.staged.release()
			default:
				return
			}
		}
	})
}

// worker drains the run queue until the service closes.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.root.Done():
			return
		case t := <-s.queue:
			runCtx := t.c.runCtx
			if t.tctx != nil {
				runCtx = trace.Adopt(runCtx, t.tctx)
			}
			runCtx, rsp := trace.StartSpan(runCtx, "pipeline.run")
			rep, err := s.run(runCtx, t)
			t.staged.release()
			if err != nil {
				setSpanError(rsp, err)
			}
			rsp.End()
			s.ct.runs.Add(1)
			if err == nil {
				s.cache.Add(t.key, rep)
				s.ct.observeStages(rep.MatchTime, rep.ClusterTime, rep.GenTime)
			}
			s.flight.finish(t.key, t.c, rep, err)
		}
	}
}

// run executes one task's pipeline; a panic comes back as an error.
func (s *Service) run(ctx context.Context, t *task) (rep *pipeline.Report, err error) {
	defer recoverRun(&err)
	if st := t.staged; st.Cands != nil {
		return s.runner.RunWithClusters(ctx, t.personal, st.Cands, st.Clusters, st.Iterations, t.opts)
	}
	return s.runner.RunContext(ctx, t.personal, t.opts)
}

// Match serves one match request. Identical concurrent requests share one
// pipeline run; identical repeated requests are served from the report
// cache. The returned Report may be shared with other callers and must be
// treated as read-only.
//
// ctx bounds the request: if it expires while the request is queued or
// running, Match returns ctx.Err() immediately, and the underlying run is
// cancelled as soon as no other caller is waiting on it. A request without
// a deadline that misses the cache gets Config.DefaultTimeout, if set.
func (s *Service) Match(ctx context.Context, personal *schema.Tree, opts pipeline.Options) (*pipeline.Report, error) {
	return s.MatchStaged(ctx, personal, opts, Staged{})
}

// MatchJSON is Match returning the report's HTTP rendering
// (renderBody). The rendering lives in the report's own cache entry:
// a hit on an entry that has one returns those bytes without touching the
// report; a miss, a flight join, or a hit on an entry only Match has read
// so far renders once and attaches the result to the entry (same key and
// LRU position; the governor is charged the body's length on top of the
// report's). raw, when not nil, is the request's bytes as read off the
// wire: once the rendering is attached it becomes an alias of the entry,
// so CachedJSON answers a byte-identical repeat. Counters and the latency
// histogram move exactly as for Match. The returned bytes are shared and
// must be treated as read-only.
func (s *Service) MatchJSON(ctx context.Context, personal *schema.Tree, opts pipeline.Options, raw []byte) ([]byte, error) {
	rep, hit, err := s.match(ctx, personal, opts, Staged{})
	if err != nil {
		return nil, err
	}
	return s.cache.rendering(hit, personal, rep, raw), nil
}

// CachedJSON implements Backend: the renderings of byte-identical repeats,
// found in the report cache's alias index without decoding anything. Only
// when every one of raws is found does it fill bodies and count each as one
// request served from the cache, as Match counts a hit. With the cache off
// it returns false at once.
func (s *Service) CachedJSON(raws, bodies [][]byte) bool {
	return s.cache.serveRaw(s.root.Err() != nil, raws, bodies, &s.ct.lat, &s.ct.requests, &s.ct.cacheHits)
}

// MatchStaged implements ShardBackend: Match with the stages the caller
// already ran. A staged projection makes the pipeline run generation only
// (Runner.RunWithClusters); it must be what this service's repository would
// produce for (personal, opts) — in the sharded setup, the router's
// full-repository pre-pass projected onto this shard — so the report, and
// therefore the cache entry under the shared request signature, is
// identical to a from-scratch Match. Cache, deduplication and
// instrumentation behave exactly as in Match. A staged Release is called as
// Staged describes: by the worker that ran the projection, or before
// MatchStaged returns when no run was scheduled with it.
func (s *Service) MatchStaged(ctx context.Context, personal *schema.Tree, opts pipeline.Options, staged Staged) (*pipeline.Report, error) {
	rep, _, err := s.match(ctx, personal, opts, staged)
	return rep, err
}

// MatchCached answers (personal, opts) from the report cache alone, without
// scheduling anything: the report Match would return for a repeat, or false.
// A hit counts as one request served from the cache; a miss counts nothing
// here, because nothing is served (the shard answers it 428 and counts it
// as a slim miss). A closed service answers nothing.
func (s *Service) MatchCached(personal *schema.Tree, opts pipeline.Options) (*pipeline.Report, bool) {
	if s.root.Err() != nil {
		return nil, false
	}
	start := time.Now()
	rep, _, ok := s.cache.Get(Signature(personal, opts))
	if !ok {
		return nil, false
	}
	s.ct.requests.Add(1)
	s.ct.cacheHits.Add(1)
	s.ct.observe(time.Since(start))
	return rep, true
}

// cacheRef is where a served report sits in the report cache: its key and
// the rendering resident beside it (nil when the report came from a run, or
// from an entry nothing has been rendered for yet).
type cacheRef struct {
	key  string
	body []byte
}

// match is the shared body of MatchStaged and MatchJSON. A staged hold goes
// to the task that runs it, or is let go of on return.
func (s *Service) match(ctx context.Context, personal *schema.Tree, opts pipeline.Options, staged Staged) (*pipeline.Report, cacheRef, error) {
	handed := false
	if staged.Release != nil {
		defer func() {
			if !handed {
				staged.Release()
			}
		}()
	}
	s.ct.requests.Add(1)
	if err := s.root.Err(); err != nil {
		s.ct.rejected.Add(1)
		return nil, cacheRef{}, ErrClosed
	}
	if personal == nil || personal.Root() == nil {
		s.ct.rejected.Add(1)
		return nil, cacheRef{}, errors.New("serve: nil personal schema")
	}
	if max := s.cfg.MaxSchemaNodes; max > 0 && personal.Len() > max {
		s.ct.rejected.Add(1)
		return nil, cacheRef{}, fmt.Errorf("serve: %w: %d nodes > limit %d", ErrSchemaTooLarge, personal.Len(), max)
	}

	start := time.Now()
	key := Signature(personal, opts)
	for attempt := 0; ; attempt++ {
		_, csp := trace.StartSpan(ctx, "cache.lookup")
		rep, body, ok := s.cache.Get(key)
		if csp != nil {
			csp.SetAttr("hit", strconv.FormatBool(ok))
			csp.End()
		}
		if ok {
			if attempt == 0 {
				s.ct.cacheHits.Add(1)
			}
			s.ct.observe(time.Since(start))
			return rep, cacheRef{key, body}, nil
		}
		if attempt == 0 {
			s.ct.cacheMisses.Add(1)
			// Only a miss can wait, so a hit returns before any timer exists.
			if _, ok := ctx.Deadline(); !ok && s.cfg.DefaultTimeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, s.cfg.DefaultTimeout)
				defer cancel()
			}
		}

		if s.beforeJoin != nil {
			s.beforeJoin()
		}
		c, leader := s.flight.join(key, s.root)
		if leader {
			// The cache was read before the join. An identical run that
			// finished in between (the worker fills the cache, then frees
			// the flight key) would leave this request leading a second,
			// redundant run; the key is ours now, so a second look is
			// decisive: serve from the cache and close the flight with it.
			if rep, body, ok := s.cache.Get(key); ok {
				s.flight.finish(key, c, rep, nil)
				s.ct.observe(time.Since(start))
				return rep, cacheRef{key, body}, nil
			}
			t := &task{key: key, c: c, personal: personal, opts: opts, staged: staged}
			if trace.FromContext(ctx) != nil {
				t.tctx = ctx
			}
			select {
			case s.queue <- t:
				handed = true
			case <-ctx.Done():
				// The run never got scheduled; unblock any followers with
				// the leader's error (follower retry below shields the
				// ones whose own contexts are still live).
				s.flight.finish(key, c, nil, ctx.Err())
				s.ct.errors.Add(1)
				return nil, cacheRef{}, ctx.Err()
			case <-s.root.Done():
				s.flight.finish(key, c, nil, ErrClosed)
				s.ct.errors.Add(1)
				return nil, cacheRef{}, ErrClosed
			}
		} else if attempt == 0 {
			s.ct.deduped.Add(1)
		}

		_, wsp := trace.StartSpan(ctx, "flight.wait")
		if wsp != nil {
			wsp.SetAttr("leader", strconv.FormatBool(leader))
		}
		select {
		case <-c.done:
			wsp.End()
			if c.err != nil {
				// A follower may inherit a context error that belonged to
				// another caller (the shared run's leader expired or every
				// waiter of a previous round left). If our own context is
				// still live, retry: the next round either finds the
				// cache populated or elects us leader of a fresh run.
				if !leader && ctxError(c.err) && ctx.Err() == nil {
					continue
				}
				s.ct.errors.Add(1)
				return nil, cacheRef{}, c.err
			}
			s.ct.observe(time.Since(start))
			return c.val, cacheRef{key: key}, nil
		case <-ctx.Done():
			wsp.End()
			s.flight.leave(key, c)
			s.ct.errors.Add(1)
			return nil, cacheRef{}, ctx.Err()
		case <-s.root.Done():
			wsp.End()
			// Service closed while waiting; Close fails queued tasks, but
			// a task enqueued concurrently with shutdown could slip past
			// the drain, so don't rely on c.done.
			s.flight.leave(key, c)
			s.ct.errors.Add(1)
			return nil, cacheRef{}, ErrClosed
		}
	}
}

// ctxError reports whether err is a context cancellation or deadline
// expiry — the error classes a shared run can inherit from a caller other
// than the one inspecting it.
func ctxError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// RewriteQuery translates an XPath query over the personal schema into a
// query over the repository schema using a mapping discovered by Match.
// It reads only the immutable index, so it is safe concurrently with
// Match traffic.
func (s *Service) RewriteQuery(q string, personal *schema.Tree, mp mapgen.Mapping) (string, error) {
	parsed, err := query.Parse(q)
	if err != nil {
		return "", err
	}
	return query.Rewrite(parsed, personal, mp, s.runner.Index())
}

// Snapshot implements Backend: one snapshot serves as both rollup and the
// single shard's entry.
func (s *Service) Snapshot() (Stats, []Stats) {
	st := s.Stats()
	return st, []Stats{st}
}

// RepositoryStats implements Backend: the served slice of the forest —
// the view's member trees for a view-backed shard (so a router's rollup
// sums to the whole repository exactly once), the whole repository
// otherwise.
func (s *Service) RepositoryStats() schema.Stats {
	if v := s.runner.View(); v != nil {
		return v.Stats()
	}
	return s.Repository().Stats()
}

// NumShards implements Backend; a plain service is one shard.
func (s *Service) NumShards() int { return 1 }

// residentStats snapshots the shared fields of Stats (see metrics): the
// figures of the resources one process keeps once — gov's account, and the
// labelling index, name index and generation counters behind runner. A
// Service reports the ones it runs on; a Router reports its own once for all
// its in-process shards.
func residentStats(gov *memGovernor, runner *pipeline.Runner) Stats {
	gs := runner.GenStats().Snapshot()
	st := Stats{
		IndexBytes:             runner.Index().MemoryBytes(),
		PartialMappings:        gs.PartialMappings,
		ClustersSkippedByBound: gs.ClustersSkippedByBound,
		FloorTightenings:       gs.FloorTightenings,
		GenPoolReuses:          gs.PoolReuses,
	}
	_, st.CacheByteBudget, st.CacheEvictions = gov.snapshot()
	if ni := runner.NameIndex(); ni != nil {
		ks := ni.KernelStats()
		st.NameIndexBytes, st.DistinctVocabRatio = ni.MemoryBytes(), ni.DistinctRatio()
		st.SimCallsSaved, st.MatchPrunes = ks.SavedCalls, ks.PruneHits
		st.MatchMemoHits, st.MatchMemoMisses, st.MatchMemoBytes = ks.MemoHits, ks.MemoMisses, ks.MemoBytes
	}
	return st
}

// Stats returns a point-in-time snapshot of the service's counters.
func (s *Service) Stats() Stats {
	st := residentStats(s.gov, s.runner)
	st.CacheBytes = s.cache.Bytes()
	st.Requests = s.ct.requests.Load()
	st.CacheHits = s.ct.cacheHits.Load()
	st.CacheMisses = s.ct.cacheMisses.Load()
	st.DedupedInFlight = s.ct.deduped.Load()
	st.PipelineRuns = s.ct.runs.Load()
	st.Errors = s.ct.errors.Load()
	st.Rejected = s.ct.rejected.Load()
	st.QueueDepth = len(s.queue)
	st.QueueCapacity = cap(s.queue)
	st.InFlight = s.flight.inFlight()
	st.Workers = s.cfg.Workers
	st.CacheLen = s.cache.Len()
	st.CacheCap = s.cache.Cap()
	st.Latency = s.ct.lat.snapshot()
	st.Stages = s.ct.snapshotStages()
	return st
}
