// Package serve implements a long-lived concurrent matching service on top
// of the pipeline: one indexed repository serving streams of match requests
// from many clients.
//
// The design follows the dataflow shape of claircore's matcher
// architecture: requests flow through a bounded queue into a fixed worker
// pool, so an arbitrary number of concurrent clients exerts only bounded
// load on the expensive resource (the matching pipeline). Two layers
// exploit request overlap before any work is scheduled:
//
//   - a flight group deduplicates identical in-flight requests — N
//     concurrent clients asking the same question trigger one pipeline run
//     and share its report (flightGroup, the package's one in-flight
//     sharing type; the router's pre-pass shares its runs through it too);
//   - an LRU cache keyed by a canonical request signature serves repeated
//     questions without running the pipeline at all — and, through
//     MatchJSON, without rendering the answer again: a report's HTTP
//     rendering (AppendReportJSON) is kept in the report's own cache entry;
//   - in front of it, an alias index maps the raw bytes of requests the
//     entry answered (MatchJSON's raw argument) to the entry, so that
//     CachedJSON answers a byte-identical repeat before it is decoded,
//     parsed or signed: a hash of the bytes, one map probe and a full byte
//     comparison.
//
// Per-request deadlines and cancellation are honoured end to end: a
// request context expiring while queued or running releases the caller
// immediately, and when the last waiter of a shared run has gone the run
// itself is cancelled via pipeline.Runner.RunContext. A run that panics
// does not take the process down: the panic is recovered, the flight
// finishes with an error ("serve: pipeline run panicked: ...") that every
// waiter receives and Stats.Errors counts, and the stack is attached to
// the run's pipeline.run (or the router's prepass) span.
//
// # Sharding: one index, shard views
//
// A Router scales the same service horizontally: the repository splits
// into per-shard tree subsets (candidate matching is per-tree and clusters
// never span trees, so partitioning loses no candidate mappings), one
// Service runs per shard, and Router.Match fans each request out across
// every shard concurrently, merging the per-shard ranked lists into one
// global top-N report with mapgen.MergeRanked. Two partition strategies
// exist: PartitionBalanced spreads trees by node count alone, while
// PartitionClustered (the default) co-locates trees with overlapping label
// vocabularies under a 2× average-load cap, so a query's candidates
// concentrate in the shards that speak its vocabulary. Service and Router
// both implement Backend, the surface the HTTP daemon serves.
//
// Shards are VIEWS, not copies: the router indexes the repository exactly
// once and each shard runs on a labeling.View — a set of member trees plus
// a dense global↔local node-ID translation — over that single shared
// labeling.Index (PartitionRepositoryViews, the only partitioner).
// Structural queries, mapping generation and query rewriting all read the
// one immutable index, so resident index memory is independent of the
// shard count (Stats.IndexBytes pins this).
//
// # Transport-agnostic shards
//
// The Router reaches its shards only through the narrow ShardBackend
// interface — one staged match entry point (MatchStaged) plus stats and
// close — so a shard need not live in this process at all.
// NewRouterWithShardBackends assembles a router over externally built
// backends; internal/shardrpc.ReplicaSet implements ShardBackend over one
// or more HTTP clients for a shard hosted by other processes
// (bellflower-server -shard-of), with the shard view's dense local-ID space
// as the wire ID space.
// Remote-shard failures flow through the same partial-results machinery
// as local ones: per-shard errors, Report.Incomplete, per-shard metric
// series.
//
// # Report cache and candidate pre-pass
//
// A router answers a repeated request from its own report cache of merged
// reports, their renderings and their aliases, and asks no shard. Only the
// requests it cannot answer run the pre-pass: element matching and
// clustering execute
// once against the full repository, keyed by a pre-pass signature
// (personal schema + matcher + MinSim + clustering options), shared in
// flight through the same flight group type a Service uses but kept once
// the flight is over by nothing, and projected onto each shard. Because
// shards are views of the same repository, projection is pure filtering —
// each global cluster (clusters never span trees) is handed wholesale to
// its owning shard; matcher.Candidates.Restrict gives an in-process shard
// its member-tree candidates with their original node objects and order,
// and a remote shard's client writes just those from the whole set into
// the request body. A flight follower only rebinds the candidates to its
// own personal tree. The pre-pass entry's pooled storage goes back when
// the last request it served and the last shard it was handed to let go
// (Staged describes who holds a projection, and until when). Every busy
// remote shard gets the full request, once per attempt.
// Shards then run only mapping generation (ShardBackend.MatchStaged with
// the projection as its Staged argument → pipeline.Runner.RunWithClusters),
// and only the shards that can add to the report are asked: a shard whose
// projection holds no useful cluster (under IncludePartials, no cluster at
// all) is idle, and the router runs the same generation stage over that
// projection itself — over no cluster, it only counts the shard's
// candidates (Stats.IdleSkips counts these shards). The projection
// is exact, so mappings and partials are identical to per-shard
// computation — and because clustering is global, even the k-means
// variants reproduce the unsharded ones exactly, which per-shard
// clustering only approximates (Router lists the report counters that
// depend on the topology). The pre-pass
// executions are counted by Stats.CandidatePrePass, surfaced in /v1/stats
// and as bellflower_candidate_prepass_total in the Prometheus scrape.
//
// # Memory governance
//
// All serving caches are report caches — every shard's and a router's own
// — and answer to one byte-budget memory governor: each entry, a report
// with its attached rendering and aliases, is size-estimated in bytes and
// charged to a single account (Config.CacheBytes); an entry's aliases are
// evicted with it. When the budget is exceeded the
// governor evicts the globally least-recently-used entry across every
// member cache; per-cache entry-count caps (Config.CacheSize) remain as
// secondary limits. Entries have no TTL: a
// governor belongs to one backend over one immutable repository, and a
// repository swap builds a new backend, so no cached entry can go stale.
// Stats exposes the account (CacheBytes, CacheByteBudget, CacheEvictions)
// alongside IndexBytes.
//
// # Partial-results fan-out
//
// Router fan-out is strict by default: any shard error fails the whole
// request, because a merge missing one shard's mappings would present a
// wrong top-N as authoritative. Config.PartialResults, fixed for the
// router's lifetime, opts availability-over-completeness callers into
// merging the shards that succeeded when others fail: the report is
// marked Incomplete and carries per-shard errors
// (pipeline.Report.ShardErrors); requests that fail on every shard still
// error. An idle shard is never asked, so in either mode its failure —
// even its death — fails nothing and marks nothing Incomplete. A failed
// pre-pass fails the request in both modes: it fails only
// for an expired context, an invalid clustering configuration or a panic,
// and every shard would run the same code on the same input and fail the
// same way. Stats.PartialResults counts the degraded merges.
//
// # Stats and the metric table
//
// Stats is the one snapshot every surface reads: /v1/stats is its JSON,
// /metrics its Prometheus exposition. Each int, int64 and float64 field of
// Stats is declared exactly once, as a row of the metric table (metrics in
// metrics.go): the field, its Prometheus family name, type and help, its
// per-shard bellflower_shard_* series if it has one, and its merge rule.
// There are two rules. A sum field is per-service work or capacity and adds
// up across snapshots. A shared field is a figure of a resource one process
// keeps once — the labelling index, the name index, the generation
// counters, the memory governor: MergeStats keeps the maximum, and
// Router.Snapshot reads the router's own resources once (in-process shards
// run on exactly those) and adds the snapshots of shards in other
// processes. MergeStats, that rollup, WritePrometheus and the per-shard
// families all iterate the table, and the README's metric table is the
// exporter's HELP/TYPE output. Adding a counter is three steps: the Stats
// field, its table row, and the line that increments it; tests fail when
// the first two disagree or the README is stale. The counters themselves
// stay plain atomics on the structs that own them — the table is read only
// when a snapshot is taken, merged or exposed, never on a request.
//
// # Concurrency
//
// Every exported type is safe for use from many goroutines. A Service's
// repository, pipeline runner and labelling index are immutable after New;
// mutable state (queue, flight group, cache, counters) is synchronized
// internally. Reports returned by Match may be shared between callers and
// with the cache, and must be treated as read-only. Close is idempotent,
// may be called concurrently with Match, and unblocks queued waiters with
// ErrClosed.
package serve
