package serve

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// latencyBucketsMS are the histogram upper bounds in milliseconds, 1-2-5
// log steps from 10 µs to 5 s, one layout for the request and every stage
// histogram; an extra implicit +Inf bucket catches everything slower. The
// pipeline stages and a cache hit run well under a millisecond, so the
// bounds must resolve tenths of one.
var latencyBucketsMS = []float64{
	0.01, 0.02, 0.05, 0.1, 0.2, 0.5,
	1, 2, 5, 10, 20, 50, 100, 200, 500,
	1000, 2000, 5000,
}

// numLatencyBuckets is len(latencyBucketsMS) plus the +Inf overflow bucket.
const numLatencyBuckets = 19

func init() {
	if numLatencyBuckets != len(latencyBucketsMS)+1 {
		panic("serve: numLatencyBuckets out of sync with latencyBucketsMS")
	}
}

// histogram is a fixed-bucket duration histogram; every field is updated
// atomically, so it is safe on the hottest paths. The end-to-end request
// latency and every per-stage timer share this one shape (and therefore
// one bucket layout, which keeps the Prometheus exposition uniform).
type histogram struct {
	count atomic.Int64
	sumNS atomic.Int64 // nanoseconds: a cache hit takes ~3 µs, coarser units would truncate it
	bkt   [numLatencyBuckets]atomic.Int64
}

func (h *histogram) observe(d time.Duration) { h.observeN(d, 1) }

// observeN records n observations of d each.
func (h *histogram) observeN(d time.Duration, n int64) {
	h.count.Add(n)
	h.sumNS.Add(d.Nanoseconds() * n)
	ms := float64(d) / float64(time.Millisecond)
	for i, ub := range latencyBucketsMS {
		if ms <= ub {
			h.bkt[i].Add(n)
			return
		}
	}
	h.bkt[len(latencyBucketsMS)].Add(n)
}

func (h *histogram) snapshot() LatencyStats {
	ls := LatencyStats{
		Count:     h.count.Load(),
		SumMS:     float64(h.sumNS.Load()) / 1e6,
		BucketsMS: append([]float64(nil), latencyBucketsMS...),
		Counts:    make([]int64, len(latencyBucketsMS)+1),
	}
	if ls.Count > 0 {
		ls.MeanMS = ls.SumMS / float64(ls.Count)
	}
	for i := range ls.Counts {
		ls.Counts[i] = h.bkt[i].Load()
	}
	ls.fillQuantiles()
	return ls
}

// StageTimer records one named pipeline stage's durations into a
// fixed-bucket histogram. Components outside this package (the shard RPC
// client, for one) keep StageTimers for their own stages and fold the
// snapshots into Stats.Stages.
type StageTimer struct{ h histogram }

// Observe records one stage execution.
func (t *StageTimer) Observe(d time.Duration) { t.h.observe(d) }

// Snapshot returns the timer's histogram snapshot.
func (t *StageTimer) Snapshot() LatencyStats { return t.h.snapshot() }

// counters is the service's hot-path instrumentation; every field is
// updated atomically.
type counters struct {
	requests    atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	deduped     atomic.Int64
	runs        atomic.Int64
	errors      atomic.Int64
	rejected    atomic.Int64

	lat histogram

	// Per-stage histograms for the pipeline stages this service executes.
	// A staged run (candidates or clusters precomputed by a router
	// pre-pass) records only the stages it actually ran.
	stMatch    histogram
	stCluster  histogram
	stGenerate histogram
}

// observe records one served request's end-to-end latency.
func (c *counters) observe(d time.Duration) { c.lat.observe(d) }

// observeStages records the per-stage durations of one completed run.
// Zero durations mean the stage was skipped (precomputed upstream) and
// are not recorded.
func (c *counters) observeStages(match, clusterT, gen time.Duration) {
	if match > 0 {
		c.stMatch.observe(match)
	}
	if clusterT > 0 {
		c.stCluster.observe(clusterT)
	}
	if gen > 0 {
		c.stGenerate.observe(gen)
	}
}

// snapshotStages builds the Stages map for Stats; stages that never ran
// are omitted so a plain snapshot stays compact.
func (c *counters) snapshotStages() map[string]LatencyStats {
	out := make(map[string]LatencyStats, 3)
	addStage(out, StageMatch, &c.stMatch)
	addStage(out, StageCluster, &c.stCluster)
	addStage(out, StageGenerate, &c.stGenerate)
	return out
}

func addStage(m map[string]LatencyStats, name string, h *histogram) {
	if h.count.Load() > 0 {
		m[name] = h.snapshot()
	}
}

// Stage names used as Stats.Stages keys and as the Prometheus stage
// label. The pipeline stages come from the paper's three-step dataflow;
// the rest instrument the serving layers around it.
const (
	StageMatch     = "match"     // element matching (pipeline stage 1)
	StageCluster   = "cluster"   // clustering (pipeline stage 2)
	StageGenerate  = "generate"  // mapping generation (pipeline stage 3)
	StagePrePass   = "prepass"   // router's shared match+cluster pre-pass
	StageFanout    = "fanout"    // router's per-shard fan-out (incl. merge)
	StageMerge     = "merge"     // router's k-way report merge
	StageEncode    = "encode"    // shard RPC request encoding (client side)
	StageRoundtrip = "roundtrip" // shard RPC HTTP round trip
	StageDecode    = "decode"    // shard RPC response decoding (client side)
)

// Stats is a point-in-time snapshot of the service's instrumentation.
type Stats struct {
	// Requests counts Match calls (batch entries count individually). A
	// router rollup counts a request its report cache answers once, and a
	// fanned-out request once per shard asked.
	Requests int64 `json:"requests"`

	// CacheHits counts requests served straight from a report cache — in
	// a router rollup, the router's own and the shards'.
	CacheHits int64 `json:"cache_hits"`

	// CacheMisses counts requests that had to consult the flight group.
	CacheMisses int64 `json:"cache_misses"`

	// DedupedInFlight counts requests that joined an already-running
	// identical request instead of starting their own pipeline run.
	DedupedInFlight int64 `json:"deduped_in_flight"`

	// PipelineRuns counts underlying pipeline executions completed.
	PipelineRuns int64 `json:"pipeline_runs"`

	// CandidatePrePass counts full-repository element-matching executions
	// performed by a sharded router's candidate pre-pass. The pre-pass runs
	// above the shards — without this counter a sharded snapshot
	// under-reports cold-path work, because the per-shard pipeline runs no
	// longer include the quadratic matching stage. Always 0 for a plain
	// Service and in per-shard snapshots; present only in router rollups.
	CandidatePrePass int64 `json:"candidate_pre_pass"`

	// Errors counts requests that finished with an error (including
	// cancellations and deadline expiries).
	Errors int64 `json:"errors"`

	// Rejected counts requests refused before running (service closed,
	// oversized schema, nil schema).
	Rejected int64 `json:"rejected"`

	// QueueDepth is the number of runs waiting for a worker right now.
	QueueDepth int `json:"queue_depth"`

	// QueueCapacity is the bounded queue's size.
	QueueCapacity int `json:"queue_capacity"`

	// InFlight is the number of distinct runs currently executing or
	// queued (after dedupe).
	InFlight int `json:"in_flight"`

	// Workers is the worker-pool size.
	Workers int `json:"workers"`

	// CacheLen and CacheCap describe the report cache.
	CacheLen int `json:"cache_len"`
	CacheCap int `json:"cache_cap"`

	// CacheBytes is the resident size-estimated bytes of this backend's
	// cached entries. For a Service it covers its report cache; a Router's
	// rollup covers every shard's reports plus its own merged reports —
	// everything the unified memory governor accounts.
	CacheBytes int64 `json:"cache_bytes"`

	// CacheByteBudget is the governor's byte budget (Config.CacheBytes);
	// 0 means unbounded. Shards of one router share a single governor, so
	// the rollup reports the shared budget once (a shared field).
	CacheByteBudget int64 `json:"cache_byte_budget"`

	// CacheEvictions counts entries evicted for space — byte budget or
	// entry-count cap. Governor-level: shards sharing a governor report the
	// same figure, and the rollup carries it once (a shared field).
	CacheEvictions int64 `json:"cache_evictions"`

	// IndexBytes is the resident labelling-index memory serving this
	// backend. View-backed shards share one full-repository index, so a
	// sharded rollup equals the unsharded figure — the gauge that proves
	// the per-shard index duplication is gone (a shared field: the router
	// reads its one index, see Router.Snapshot).
	IndexBytes int64 `json:"index_bytes"`

	// NameIndexBytes is the resident memory of the matching kernel's
	// name-similarity index (the interned (name, datatype) vocabulary with
	// precomputed scoring inputs). Like IndexBytes it is shared by every
	// view-backed shard of one router, so the sharded rollup equals the
	// unsharded figure (a shared field).
	NameIndexBytes int64 `json:"name_index_bytes"`

	// DistinctVocabRatio is distinct (name, datatype) keys divided by
	// repository nodes — the fraction of the matching universe that is
	// distinct vocabulary. Its inverse is the keyed kernel's dedup factor:
	// a ratio of 0.1 means ten nodes share each scored key on average.
	DistinctVocabRatio float64 `json:"distinct_vocab_ratio"`

	// SimCallsSaved counts similarity evaluations the keyed kernel's
	// vocabulary dedup avoided relative to the naive per-node loop, and
	// MatchPrunes counts edit-distance passes skipped by the
	// length-difference bound. Both live on the shared name index, so
	// shards of one router report the same totals and the rollup carries
	// them once (shared fields).
	SimCallsSaved int64 `json:"sim_calls_saved"`
	MatchPrunes   int64 `json:"match_prunes"`

	// MatchMemoHits and MatchMemoMisses count personal nodes whose score
	// row the matching kernel found in, or had to compute into, the name
	// index's row memo (a hit adds to neither SimCallsSaved nor
	// MatchPrunes); MatchMemoBytes is the memo's bounded resident size,
	// already included in NameIndexBytes. On the shared name index like
	// the two above (shared fields).
	MatchMemoHits   int64 `json:"match_memo_hits"`
	MatchMemoMisses int64 `json:"match_memo_misses"`
	MatchMemoBytes  int64 `json:"match_memo_bytes"`

	// Generation-engine counters, accumulated on one EngineStats shared by
	// every runner of a repository generation (the same sharing discipline
	// as SimCallsSaved/MatchPrunes): PartialMappings is the paper's
	// machine-independent work indicator summed across requests;
	// ClustersSkippedByBound counts useful clusters a top-N search skipped
	// by bound; FloorTightenings counts rises of a top-N search's Δ-floor;
	// GenPoolReuses counts warm search-state acquisitions from the pool.
	PartialMappings        int64 `json:"partial_mappings"`
	ClustersSkippedByBound int64 `json:"clusters_skipped_by_bound"`
	FloorTightenings       int64 `json:"floor_tightenings"`
	GenPoolReuses          int64 `json:"gen_pool_reuses"`

	// PartialResults counts fanned-out requests served as Incomplete
	// merges under the partial-results option (router-level; always 0
	// for a plain Service and in per-shard snapshots).
	PartialResults int64 `json:"partial_results"`

	// Failovers counts match attempts retried on a DIFFERENT replica after
	// a transport error (replica-group shards only; always 0 for a plain
	// Service). Present in per-shard snapshots and summed into rollups.
	Failovers int64 `json:"failovers,omitempty"`

	// HealthSkips counts shards skipped by the partial-results fan-out
	// because their control plane reported them unhealthy — no request was
	// sent, so no per-request timeout was paid (router-level; always 0 for
	// a plain Service and in per-shard snapshots).
	HealthSkips int64 `json:"health_skips,omitempty"`

	// IdleSkips counts shards the fan-out did not ask because their share
	// of the request's clusters could add nothing (see Router; router-level,
	// always 0 for a plain Service and in per-shard snapshots).
	IdleSkips int64 `json:"idle_skips,omitempty"`

	// Replicas holds the control-plane health snapshot of each replica
	// behind this shard (replica-group shards only; absent elsewhere). A
	// rollup lists every shard's replicas in shard order; the per-shard
	// snapshots say which shard each belongs to.
	Replicas []ReplicaHealth `json:"replicas,omitempty"`

	// ProjectionCacheHits / ProjectionCacheMisses count a shard server's
	// slim requests: a hit was answered from the report cache without the
	// projection ever crossing the wire; a miss was answered 428
	// (report-needed). No router sends a slim request, so both read 0; they
	// stay while the benchmark's wire ledger reads them, and go with the
	// shard's slim handler once it does not. Always 0 off the
	// shard-hosting path.
	ProjectionCacheHits   int64 `json:"projection_cache_hits,omitempty"`
	ProjectionCacheMisses int64 `json:"projection_cache_misses,omitempty"`

	// WireBytes breaks the shard wire traffic down by direction, counted
	// where the bytes enter/leave the shard server (request bodies in,
	// response bodies out).
	WireBytes WireByteStats `json:"wire_bytes"`

	// Latency is the end-to-end request latency histogram.
	Latency LatencyStats `json:"latency"`

	// Stages holds per-stage latency histograms keyed by stage name (see
	// the Stage* constants): the pipeline stages a Service ran, plus —
	// in router rollups — pre-pass/fan-out/merge, and — for remote
	// shards — the RPC encode/roundtrip/decode stages. Stages that never
	// ran are absent.
	Stages map[string]LatencyStats `json:"stages,omitempty"`
}

// WireByteStats counts shard-RPC match body bytes by direction, from the
// shard server's perspective: In is request bodies received, Out is
// response bodies sent. Exported to Prometheus as
// bellflower_wire_bytes_total{dir,codec="binary"}. The JSON fields belong
// to the retired JSON match codec and stay zero; they remain because
// benchmark/ledger.go sums all four.
type WireByteStats struct {
	InJSON    int64 `json:"in_json"`
	InBinary  int64 `json:"in_binary"`
	OutJSON   int64 `json:"out_json"`
	OutBinary int64 `json:"out_binary"`
}

func (w *WireByteStats) add(o WireByteStats) {
	w.InJSON += o.InJSON
	w.InBinary += o.InBinary
	w.OutJSON += o.OutJSON
	w.OutBinary += o.OutBinary
}

// LatencyStats is a fixed-bucket latency histogram.
type LatencyStats struct {
	// Count, SumMS and MeanMS summarize all observations.
	Count  int64   `json:"count"`
	SumMS  float64 `json:"sum_ms"`
	MeanMS float64 `json:"mean_ms"`

	// P50MS, P95MS and P99MS are approximate quantiles interpolated from
	// the histogram buckets (exact only up to bucket resolution;
	// observations beyond the last finite bound clamp to it).
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`

	// BucketsMS holds the bucket upper bounds in milliseconds; Counts has
	// one extra final entry for observations above the last bound.
	BucketsMS []float64 `json:"buckets_ms"`
	Counts    []int64   `json:"counts"`
}

// Quantile estimates the q-quantile (0 < q <= 1) in milliseconds by
// linear interpolation within the histogram bucket that crosses the
// target rank — the same estimate Prometheus's histogram_quantile
// computes server-side. Observations in the +Inf overflow bucket clamp
// to the last finite bound.
func (ls LatencyStats) Quantile(q float64) float64 {
	if ls.Count <= 0 || len(ls.Counts) == 0 {
		return 0
	}
	target := q * float64(ls.Count)
	if target < 1 {
		target = 1
	}
	var cum float64
	lower := 0.0
	for i, cnt := range ls.Counts {
		if i >= len(ls.BucketsMS) {
			break // +Inf bucket: clamp below
		}
		upper := ls.BucketsMS[i]
		if cum+float64(cnt) >= target {
			if cnt == 0 {
				return upper
			}
			return lower + (upper-lower)*(target-cum)/float64(cnt)
		}
		cum += float64(cnt)
		lower = upper
	}
	if len(ls.BucketsMS) == 0 {
		return 0
	}
	return ls.BucketsMS[len(ls.BucketsMS)-1]
}

func (ls *LatencyStats) fillQuantiles() {
	ls.P50MS = ls.Quantile(0.50)
	ls.P95MS = ls.Quantile(0.95)
	ls.P99MS = ls.Quantile(0.99)
}

// mergeLatency folds b into a (summing counts, sums and buckets) and
// recomputes the derived mean and quantiles. Each of b's buckets adds into
// a's first bucket whose bound is at or above b's, so a snapshot from a
// build with another bucket layout (a shard daemon mid-upgrade) is counted
// under a bound that still holds its observations.
func mergeLatency(a *LatencyStats, b LatencyStats) {
	a.Count += b.Count
	a.SumMS += b.SumMS
	if a.BucketsMS == nil {
		a.BucketsMS = append([]float64(nil), b.BucketsMS...)
		a.Counts = append([]int64(nil), b.Counts...)
	} else {
		for j, cnt := range b.Counts {
			ub := math.Inf(1)
			if j < len(b.BucketsMS) {
				ub = b.BucketsMS[j]
			}
			if i := sort.SearchFloat64s(a.BucketsMS, ub); i < len(a.Counts) {
				a.Counts[i] += cnt
			}
		}
	}
	if a.Count > 0 {
		a.MeanMS = a.SumMS / float64(a.Count)
	}
	a.fillQuantiles()
	// Guard against NaN leaking into JSON from adversarial snapshots.
	if math.IsNaN(a.MeanMS) {
		a.MeanMS = 0
	}
}

// mergeStages folds src's per-stage histograms into dst, allocating dst
// on first use.
func mergeStages(dst map[string]LatencyStats, src map[string]LatencyStats) map[string]LatencyStats {
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(map[string]LatencyStats, len(src))
	}
	for name, ls := range src {
		cur := dst[name]
		mergeLatency(&cur, ls)
		dst[name] = cur
	}
	return dst
}

// MergeStats rolls several snapshots (typically one per shard) into one.
// Every scalar merges by its rule in the metric table (see metrics): sum
// fields — counters, capacities, CacheBytes — add up, shared fields keep the
// maximum, because shards of one router report the same resident index,
// engine counters and memory governor and summing would multiply one
// structure by the shard count. Replica health concatenates in argument
// order, wire bytes and histogram buckets add, and the latency mean and
// quantiles are recomputed from the merged totals — so merging one snapshot
// returns it, and merging is associative.
//
// Because a Router fans each request out to every shard, a rolled-up
// snapshot counts one fanned-out request once per shard; shard-relative
// ratios (hit rates, dedupe rates) remain meaningful. The maximum is only
// the bare-snapshot answer for shared fields (it under-reports snapshots of
// different processes); Router.Snapshot reads the resources themselves —
// prefer its figures when a backend is at hand.
func MergeStats(ss ...Stats) Stats {
	var out Stats
	for i := range ss {
		st := &ss[i]
		mergeScalars(&out, st)
		out.Replicas = append(out.Replicas, st.Replicas...)
		out.WireBytes.add(st.WireBytes)
		mergeLatency(&out.Latency, st.Latency)
		out.Stages = mergeStages(out.Stages, st.Stages)
	}
	return out
}
