package serve

import (
	"fmt"
	"io"
	"sort"
)

// WritePrometheus renders a stats snapshot in the Prometheus text
// exposition format (version 0.0.4): the service counters as counters, the
// occupancy figures as gauges, and the request latency histogram with
// cumulative buckets in seconds. shards is the backend's fan-out width
// (Backend.NumShards); pass a rolled-up snapshot (Backend.Stats) so the
// scrape covers every shard.
//
// The metric names emitted here are part of the server's public interface
// and documented in the README; change them only with a migration note.
func WritePrometheus(w io.Writer, st Stats, shards int) error {
	ew := &errWriter{w: w}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(ew, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(ew, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	gaugeF := func(name, help string, v float64) {
		fmt.Fprintf(ew, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}

	counter("bellflower_requests_total", "Match requests received (batch entries count individually; a sharded request counts once per shard).", st.Requests)
	counter("bellflower_cache_hits_total", "Requests served from the report cache.", st.CacheHits)
	counter("bellflower_cache_misses_total", "Requests that consulted the flight group.", st.CacheMisses)
	counter("bellflower_deduped_in_flight_total", "Requests that joined an identical in-flight run.", st.DedupedInFlight)
	counter("bellflower_pipeline_runs_total", "Matching pipeline executions completed.", st.PipelineRuns)
	counter("bellflower_candidate_prepass_total", "Full-repository candidate pre-pass executions (router-level element matching, shared across shards).", st.CandidatePrePass)
	counter("bellflower_partial_results_total", "Fanned-out requests served as Incomplete merges under the partial-results option.", st.PartialResults)
	counter("bellflower_prepass_fallback_total", "Requests degraded to full per-shard pipelines after a pre-pass failure (partial-results option).", st.PrePassFallbacks)
	counter("bellflower_failovers_total", "Match attempts retried on a different replica after a transport error.", st.Failovers)
	counter("bellflower_health_skips_total", "Shards skipped by the partial-results fan-out because every replica was unhealthy (no request sent).", st.HealthSkips)
	counter("bellflower_errors_total", "Requests that finished with an error, including cancellations and deadline expiries.", st.Errors)
	counter("bellflower_rejected_total", "Requests refused before running (closed service, oversized or nil schema).", st.Rejected)
	counter("bellflower_cache_evictions_total", "Cache entries evicted for space (byte budget or entry-count cap).", st.CacheEvictions)
	counter("bellflower_cache_expired_total", "Cache entries dropped because their TTL passed.", st.CacheExpired)
	counter("bellflower_projection_cache_hits_total", "Shard-server projection references resolved from the content-addressed projection cache (the projection never crossed the wire).", st.ProjectionCacheHits)
	counter("bellflower_projection_cache_misses_total", "Shard-server projection references answered 428 projection-needed (the client retried with the full payload).", st.ProjectionCacheMisses)
	counter("bellflower_sim_calls_saved_total", "Similarity evaluations avoided by the matching kernel's vocabulary dedup (distinct keys scored once, fanned out to nodes).", st.SimCallsSaved)
	counter("bellflower_match_prunes_total", "Edit-distance passes skipped by the matching kernel's length-difference pruning bound.", st.MatchPrunes)
	counter("bellflower_partial_mappings_total", "Partial mappings generated by the mapping search — the paper's machine-independent work indicator, accumulated across requests.", st.PartialMappings)
	counter("bellflower_clusters_skipped_by_bound_total", "Useful clusters the adaptive top-N engine skipped because their optimistic bound fell below the shared floor before dispatch.", st.ClustersSkippedByBound)
	counter("bellflower_floor_tightenings_total", "Rises of the adaptive top-N engine's shared pruning floor (a found mapping displaced the weakest kept one or filled the heap).", st.FloorTightenings)
	counter("bellflower_gen_pool_reuses_total", "Mapping-generation search states acquired warm from the pool instead of allocating fresh state.", st.GenPoolReuses)

	const wb = "bellflower_wire_bytes_total"
	fmt.Fprintf(ew, "# HELP %s Shard-RPC match body bytes by direction, counted at the shard server (in = request bodies received, out = response bodies sent); the wire speaks one codec.\n# TYPE %s counter\n", wb, wb)
	fmt.Fprintf(ew, "%s{dir=\"in\",codec=\"binary\"} %d\n", wb, st.WireBytes.InBinary)
	fmt.Fprintf(ew, "%s{dir=\"out\",codec=\"binary\"} %d\n", wb, st.WireBytes.OutBinary)

	gauge("bellflower_shards", "Repository shards served by this process.", int64(shards))
	gauge("bellflower_workers", "Pipeline worker goroutines across all shards.", int64(st.Workers))
	gauge("bellflower_queue_depth", "Runs waiting for a worker right now.", int64(st.QueueDepth))
	gauge("bellflower_queue_capacity", "Bounded run-queue capacity.", int64(st.QueueCapacity))
	gauge("bellflower_in_flight", "Distinct deduplicated runs executing or queued.", int64(st.InFlight))
	gauge("bellflower_report_cache_entries", "Reports currently cached.", int64(st.CacheLen))
	gauge("bellflower_report_cache_capacity", "Report cache capacity.", int64(st.CacheCap))
	gauge("bellflower_cache_bytes", "Resident size-estimated bytes across the unified cache (reports + pre-pass).", st.CacheBytes)
	gauge("bellflower_cache_byte_budget", "Unified cache byte budget (0 = unbounded).", st.CacheByteBudget)
	gauge("bellflower_index_bytes", "Resident labelling-index bytes (distinct indexes counted once; view-backed shards share one).", st.IndexBytes)
	gauge("bellflower_name_index_bytes", "Resident name-similarity-index bytes of the matching kernel (distinct indexes counted once; view-backed shards share one).", st.NameIndexBytes)
	gaugeF("bellflower_distinct_vocab_ratio", "Distinct (name, datatype) keys over repository nodes; its inverse is the matching kernel's vocabulary-dedup factor.", st.DistinctVocabRatio)

	const hist = "bellflower_request_latency_seconds"
	fmt.Fprintf(ew, "# HELP %s End-to-end request latency.\n# TYPE %s histogram\n", hist, hist)
	cum := int64(0)
	for i, ub := range st.Latency.BucketsMS {
		if i < len(st.Latency.Counts) {
			cum += st.Latency.Counts[i]
		}
		fmt.Fprintf(ew, "%s_bucket{le=\"%g\"} %d\n", hist, ub/1000, cum)
	}
	fmt.Fprintf(ew, "%s_bucket{le=\"+Inf\"} %d\n", hist, st.Latency.Count)
	fmt.Fprintf(ew, "%s_sum %g\n", hist, st.Latency.SumMS/1000)
	fmt.Fprintf(ew, "%s_count %d\n", hist, st.Latency.Count)

	if len(st.Stages) > 0 {
		const stageHist = "bellflower_stage_duration_ms"
		fmt.Fprintf(ew, "# HELP %s Per-stage latency by pipeline/serving stage, in milliseconds.\n# TYPE %s histogram\n", stageHist, stageHist)
		names := make([]string, 0, len(st.Stages))
		for name := range st.Stages {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ls := st.Stages[name]
			cum := int64(0)
			for i, ub := range ls.BucketsMS {
				if i < len(ls.Counts) {
					cum += ls.Counts[i]
				}
				fmt.Fprintf(ew, "%s_bucket{stage=%q,le=\"%g\"} %d\n", stageHist, name, ub, cum)
			}
			fmt.Fprintf(ew, "%s_bucket{stage=%q,le=\"+Inf\"} %d\n", stageHist, name, ls.Count)
			fmt.Fprintf(ew, "%s_sum{stage=%q} %g\n", stageHist, name, ls.SumMS)
			fmt.Fprintf(ew, "%s_count{stage=%q} %d\n", stageHist, name, ls.Count)
		}
	}
	return ew.err
}

// shardSeries is the per-shard metric family written by
// WritePrometheusSnapshot: one labelled series per shard alongside the
// unlabelled rollup.
var shardSeries = []struct {
	name, typ, help string
	value           func(Stats) int64
}{
	{"bellflower_shard_requests_total", "counter", "Match requests received by the shard.", func(s Stats) int64 { return s.Requests }},
	{"bellflower_shard_cache_hits_total", "counter", "Shard requests served from its report cache.", func(s Stats) int64 { return s.CacheHits }},
	{"bellflower_shard_cache_misses_total", "counter", "Shard requests that consulted the flight group.", func(s Stats) int64 { return s.CacheMisses }},
	{"bellflower_shard_deduped_in_flight_total", "counter", "Shard requests that joined an identical in-flight run.", func(s Stats) int64 { return s.DedupedInFlight }},
	{"bellflower_shard_pipeline_runs_total", "counter", "Pipeline executions completed by the shard.", func(s Stats) int64 { return s.PipelineRuns }},
	{"bellflower_shard_errors_total", "counter", "Shard requests that finished with an error.", func(s Stats) int64 { return s.Errors }},
	{"bellflower_shard_rejected_total", "counter", "Shard requests refused before running.", func(s Stats) int64 { return s.Rejected }},
	{"bellflower_shard_queue_depth", "gauge", "Runs waiting for one of the shard's workers right now.", func(s Stats) int64 { return int64(s.QueueDepth) }},
	{"bellflower_shard_in_flight", "gauge", "Distinct deduplicated runs executing or queued on the shard.", func(s Stats) int64 { return int64(s.InFlight) }},
	{"bellflower_shard_report_cache_entries", "gauge", "Reports currently cached by the shard.", func(s Stats) int64 { return int64(s.CacheLen) }},
	{"bellflower_shard_cache_bytes", "gauge", "Resident size-estimated bytes of the shard's report cache.", func(s Stats) int64 { return s.CacheBytes }},
	{"bellflower_shard_failovers_total", "counter", "Shard match attempts retried on a different replica after a transport error.", func(s Stats) int64 { return s.Failovers }},
}

// WritePrometheusSnapshot renders a backend's coherent snapshot
// (Backend.Snapshot): the rolled-up metrics of WritePrometheus, followed —
// when the backend actually fans out (len(shards) > 1) — by per-shard
// series labelled {shard="N"}, N being the shard's index in the router's
// shard order. The rollup names stay exactly those of WritePrometheus, so
// existing dashboards keep working; the labelled families add the
// per-shard breakdown under distinct bellflower_shard_* names. Shards
// backed by replica groups additionally emit one
// bellflower_shard_healthy{shard,replica} gauge per replica (1 healthy,
// 0 marked down) — even for a single-shard fan-out, where the other
// per-shard series would duplicate the rollup but replica health exists
// nowhere else.
func WritePrometheusSnapshot(w io.Writer, total Stats, shards []Stats) error {
	if err := WritePrometheus(w, total, len(shards)); err != nil {
		return err
	}
	ew := &errWriter{w: w}
	if len(shards) > 1 {
		for _, m := range shardSeries {
			fmt.Fprintf(ew, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ)
			for i, st := range shards {
				fmt.Fprintf(ew, "%s{shard=\"%d\"} %d\n", m.name, i, m.value(st))
			}
		}
	}
	wroteHealthHeader := false
	for i, st := range shards {
		for _, rh := range st.Replicas {
			if !wroteHealthHeader {
				const name = "bellflower_shard_healthy"
				fmt.Fprintf(ew, "# HELP %s Replica health per shard: 1 healthy, 0 marked unhealthy by the control plane.\n# TYPE %s gauge\n", name, name)
				wroteHealthHeader = true
			}
			v := 0
			if rh.Healthy {
				v = 1
			}
			fmt.Fprintf(ew, "bellflower_shard_healthy{shard=\"%d\",replica=%q} %d\n", i, rh.Addr, v)
		}
	}
	return ew.err
}

// errWriter latches the first write error so WritePrometheus needs no error
// check per line.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}
