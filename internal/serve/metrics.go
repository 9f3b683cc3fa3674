package serve

import (
	"math"
	"reflect"
)

// mergeRule says how one Stats scalar combines across snapshots.
type mergeRule uint8

const (
	// sum: per-service work or capacity; snapshots add up.
	sum mergeRule = iota

	// shared: a figure of one resident resource per process — the labelling
	// index, the name index, the EngineStats, the memory governor. Shards of
	// one router all report the same resource, so a bare merge keeps one copy
	// (the maximum) instead of multiplying it by the shard count; a router
	// rollup reads the resource itself and adds across processes (rollupShared).
	shared
)

const (
	counter = "counter"
	gauge   = "gauge"
)

// metric declares one scalar of Stats: the one place a counter is described.
// MergeStats, Router.Snapshot, the /metrics writers and — through them — the
// README table all read this table; nothing else names a field per metric.
type metric struct {
	field string // Stats field name
	name  string // Prometheus family; "bellflower_shard_"+suffix is the per-shard family
	typ   string // counter or gauge
	help  string
	rule  mergeRule

	// shard is the field's position among the per-shard {shard="N"} families
	// (their exposition order is part of the /metrics interface), 0 for a
	// field with no per-shard series; shardHelp is that family's help.
	shard     int
	shardHelp string

	index int // of field in Stats; resolved by init
}

// metrics lists every int, int64 and float64 field of Stats (a test fails
// when the two disagree), counters then gauges, each group in /metrics
// exposition order. A float64 field is a ratio: it is never additive and
// combines as the maximum under either rule.
var metrics = []metric{
	{field: "Requests", name: "bellflower_requests_total", typ: counter, shard: 1,
		help: "Match requests received (batch entries count individually; a sharded request counts once when the router answers it from its report cache, else once per shard asked).", shardHelp: "Match requests received by the shard."},
	{field: "CacheHits", name: "bellflower_cache_hits_total", typ: counter, shard: 2,
		help: "Requests served from the report cache.", shardHelp: "Shard requests served from its report cache."},
	{field: "CacheMisses", name: "bellflower_cache_misses_total", typ: counter, shard: 3,
		help: "Requests that consulted the flight group.", shardHelp: "Shard requests that consulted the flight group."},
	{field: "DedupedInFlight", name: "bellflower_deduped_in_flight_total", typ: counter, shard: 4,
		help: "Requests that joined an identical in-flight run.", shardHelp: "Shard requests that joined an identical in-flight run."},
	{field: "PipelineRuns", name: "bellflower_pipeline_runs_total", typ: counter, shard: 5,
		help: "Matching pipeline executions completed.", shardHelp: "Pipeline executions completed by the shard."},
	{field: "CandidatePrePass", name: "bellflower_candidate_prepass_total", typ: counter, help: "Full-repository candidate pre-pass executions (router-level element matching, shared across shards)."},
	{field: "PartialResults", name: "bellflower_partial_results_total", typ: counter, help: "Fanned-out requests served as Incomplete merges under the partial-results option."},
	{field: "Failovers", name: "bellflower_failovers_total", typ: counter, shard: 12,
		help: "Match attempts retried on a different replica after a transport error.", shardHelp: "Shard match attempts retried on a different replica after a transport error."},
	{field: "HealthSkips", name: "bellflower_health_skips_total", typ: counter, help: "Shards skipped by the partial-results fan-out because every replica was unhealthy (no request sent)."},
	{field: "IdleSkips", name: "bellflower_idle_skips_total", typ: counter, help: "Shards the fan-out did not ask because their share of the request's clusters could add no mapping (report built by the router)."},
	{field: "Errors", name: "bellflower_errors_total", typ: counter, shard: 6,
		help: "Requests that finished with an error, including cancellations and deadline expiries.", shardHelp: "Shard requests that finished with an error."},
	{field: "Rejected", name: "bellflower_rejected_total", typ: counter, shard: 7,
		help: "Requests refused before running (closed service, oversized or nil schema).", shardHelp: "Shard requests refused before running."},
	{field: "CacheEvictions", name: "bellflower_cache_evictions_total", typ: counter, rule: shared, help: "Cache entries evicted for space (byte budget or entry-count cap)."},
	{field: "ProjectionCacheHits", name: "bellflower_projection_cache_hits_total", typ: counter, help: "Shard-server slim requests answered from the report cache (the projection never crossed the wire)."},
	{field: "ProjectionCacheMisses", name: "bellflower_projection_cache_misses_total", typ: counter, help: "Shard-server slim requests answered 428 report-needed (their signature was not cached on the shard)."},
	{field: "SimCallsSaved", name: "bellflower_sim_calls_saved_total", typ: counter, rule: shared, help: "Similarity evaluations avoided by the matching kernel's vocabulary dedup (distinct keys scored once, fanned out to nodes)."},
	{field: "MatchPrunes", name: "bellflower_match_prunes_total", typ: counter, rule: shared, help: "Edit-distance passes skipped by the matching kernel's length-difference pruning bound."},
	{field: "MatchMemoHits", name: "bellflower_match_memo_hits_total", typ: counter, rule: shared, help: "Personal nodes whose score row the matching kernel served from the name index's row memo (no similarity call)."},
	{field: "MatchMemoMisses", name: "bellflower_match_memo_misses_total", typ: counter, rule: shared, help: "Personal nodes whose score row was looked up in the row memo and had to be scored (matchers the memo does not hold count as neither)."},
	{field: "PartialMappings", name: "bellflower_partial_mappings_total", typ: counter, rule: shared, help: "Partial mappings generated by the mapping search — the paper's machine-independent work indicator, accumulated across requests."},
	{field: "ClustersSkippedByBound", name: "bellflower_clusters_skipped_by_bound_total", typ: counter, rule: shared, help: "Useful clusters a top-N search skipped because their optimistic bound fell below its pruning floor before their turn."},
	{field: "FloorTightenings", name: "bellflower_floor_tightenings_total", typ: counter, rule: shared, help: "Rises of a top-N search's pruning floor (a found mapping displaced the weakest kept one or filled the heap)."},
	{field: "GenPoolReuses", name: "bellflower_gen_pool_reuses_total", typ: counter, rule: shared, help: "Mapping-generation search states acquired warm from the pool instead of allocating fresh state."},

	{field: "Workers", name: "bellflower_workers", typ: gauge, help: "Pipeline worker goroutines across all shards."},
	{field: "QueueDepth", name: "bellflower_queue_depth", typ: gauge, shard: 8,
		help: "Runs waiting for a worker right now.", shardHelp: "Runs waiting for one of the shard's workers right now."},
	{field: "QueueCapacity", name: "bellflower_queue_capacity", typ: gauge, help: "Bounded run-queue capacity."},
	{field: "InFlight", name: "bellflower_in_flight", typ: gauge, shard: 9,
		help: "Distinct deduplicated runs executing or queued.", shardHelp: "Distinct deduplicated runs executing or queued on the shard."},
	{field: "CacheLen", name: "bellflower_report_cache_entries", typ: gauge, shard: 10,
		help: "Reports currently cached.", shardHelp: "Reports currently cached by the shard."},
	{field: "CacheCap", name: "bellflower_report_cache_capacity", typ: gauge, help: "Report cache capacity."},
	{field: "CacheBytes", name: "bellflower_cache_bytes", typ: gauge, shard: 11,
		help: "Resident size-estimated bytes across the unified cache (shard reports + the router's merged reports).", shardHelp: "Resident size-estimated bytes of the shard's report cache."},
	{field: "CacheByteBudget", name: "bellflower_cache_byte_budget", typ: gauge, rule: shared, help: "Unified cache byte budget (0 = unbounded)."},
	{field: "IndexBytes", name: "bellflower_index_bytes", typ: gauge, rule: shared, help: "Resident labelling-index bytes (distinct indexes counted once; view-backed shards share one)."},
	{field: "NameIndexBytes", name: "bellflower_name_index_bytes", typ: gauge, rule: shared, help: "Resident name-similarity-index bytes of the matching kernel (distinct indexes counted once; view-backed shards share one)."},
	{field: "MatchMemoBytes", name: "bellflower_match_memo_bytes", typ: gauge, rule: shared, help: "Resident bytes of the matching kernel's score-row memo (bounded; included in bellflower_name_index_bytes)."},
	{field: "DistinctVocabRatio", name: "bellflower_distinct_vocab_ratio", typ: gauge, rule: shared, help: "Distinct (name, datatype) keys over repository nodes; its inverse is the matching kernel's vocabulary-dedup factor."},
}

func init() {
	t := reflect.TypeOf(Stats{})
	for i := range metrics {
		f, ok := t.FieldByName(metrics[i].field)
		if !ok {
			panic("serve: metric table names unknown Stats field " + metrics[i].field)
		}
		metrics[i].index = f.Index[0]
	}
}

// fold combines src into dst: added when add is set, the maximum otherwise.
func fold(dst, src reflect.Value, add bool) {
	switch {
	case dst.Kind() == reflect.Float64:
		dst.SetFloat(math.Max(dst.Float(), src.Float()))
	case add:
		dst.SetInt(dst.Int() + src.Int())
	default:
		dst.SetInt(max(dst.Int(), src.Int()))
	}
}

// mergeScalars folds st's scalar fields into out by each field's merge rule.
func mergeScalars(out, st *Stats) {
	o, s := reflect.ValueOf(out).Elem(), reflect.ValueOf(st).Elem()
	for i := range metrics {
		m := &metrics[i]
		fold(o.Field(m.index), s.Field(m.index), m.rule == sum)
	}
}

// rollupShared sets total's shared fields for a router rollup: each is taken
// once from own — the figures of the resources resident in this process —
// and added across remote, the snapshots of shards living in other processes
// with resources of their own.
func rollupShared(total, own *Stats, remote []Stats) {
	t, o := reflect.ValueOf(total).Elem(), reflect.ValueOf(own).Elem()
	for i := range metrics {
		m := &metrics[i]
		if m.rule != shared {
			continue
		}
		f := t.Field(m.index)
		f.Set(o.Field(m.index))
		for j := range remote {
			fold(f, reflect.ValueOf(&remote[j]).Elem().Field(m.index), true)
		}
	}
}
