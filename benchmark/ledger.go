package main

import (
	"fmt"

	"bellflower/internal/serve"
)

// layerDef is one row of the per-layer ledger: the metric, and where its
// number comes from (for the sample-count column).
type layerDef struct {
	name   string
	source string // "setup", "spans", "stats" or "window"
}

func (d layerDef) sample(traces int, win *window) string {
	switch d.source {
	case "setup":
		return fmt.Sprintf("median of %d in-process builds", setupRepeats)
	case "spans":
		return fmt.Sprintf("%d traced requests", traces)
	case "stats":
		return fmt.Sprintf("/v1/stats delta over %d requests", win.attempted)
	default:
		return fmt.Sprintf("%d http calls", win.ops())
	}
}

// perLayer lists every per-layer metric in print order; layer = module
// name. BENCHMARK.json repeats the names (a test keeps the two in step) and
// README.md says which end-to-end metric each should move.
var perLayer = []layerDef{
	{"repogen.generate_ms", "setup"},
	{"labeling.index_ms", "setup"},
	{"labeling.index_mb", "setup"},
	{"matcher.nameindex_ms", "setup"},
	{"matcher.nameindex_mb", "setup"},
	{"matcher.distinct_vocab_ratio", "setup"},
	{"serve.partition_ms", "setup"},
	{"schema.parse_us", "spans"},
	{"serve.signature_us", "spans"},
	{"matcher.find_ms", "spans"},
	{"matcher.candidates_per_req", "spans"},
	{"cluster.build_ms", "spans"},
	{"cluster.clusters_per_req", "spans"},
	{"cluster.iterations_per_req", "spans"},
	{"cluster.useful_ratio", "spans"},
	{"mapgen.generate_ms", "spans"},
	{"mapgen.partials_per_req", "spans"},
	{"mapgen.kept_ratio", "spans"},
	{"mapgen.merge_us", "spans"},
	{"pipeline.run_ms", "spans"},
	{"pipeline.unattributed_pct", "spans"},
	{"serve.match_cold_ms", "spans"},
	{"serve.overhead_cold_us", "spans"},
	{"serve.match_warm_us", "spans"},
	{"serve.cache_hit_ratio", "stats"},
	{"serve.pipeline_runs_per_req", "stats"},
	{"serve.cache_evictions_per_req", "stats"},
	{"serve.prepass_per_req", "stats"},
	{"serve.router_match_cold_ms", "spans"},
	{"serve.router_match_warm_us", "spans"},
	{"serve.restrict_us", "spans"},
	{"serve.shard_cpu_imbalance", "window"},
	{"shardrpc.encode_req_us", "spans"},
	{"shardrpc.decode_req_us", "spans"},
	{"shardrpc.encode_resp_us", "spans"},
	{"shardrpc.decode_resp_us", "spans"},
	{"shardrpc.req_kb", "spans"},
	{"shardrpc.resp_kb", "spans"},
	{"shardrpc.wire_kb_per_req", "stats"},
	{"shardrpc.projection_hit_ratio", "stats"},
	{"server.http_overhead_ms", "window"},
	{"server.resp_kb_per_req", "window"},
	{"bench.trace_overhead_pct", "spans"},
}

// layerMetrics adds the per-layer numbers that only a run against the
// daemons can give: /v1/stats deltas, per-process CPU, response sizes, and
// the HTTP overhead — the client-side latency of each call minus what the
// same requests cost in-process (inproc holds the traced run's spans).
func (win *window) layerMetrics(w *workload, f *fleet, inproc []span, m map[string]metric) {
	d := win.delta
	served := d(func(s serve.Stats) int64 { return s.Requests }) // counts once per shard behind a router
	sent := float64(win.attempted)
	m["serve.cache_hit_ratio"] = metric{ratio(d(func(s serve.Stats) int64 { return s.CacheHits }), served), "ratio"}
	m["serve.pipeline_runs_per_req"] = metric{ratio(d(func(s serve.Stats) int64 { return s.PipelineRuns }), served), "ratio"}
	m["serve.cache_evictions_per_req"] = metric{ratio(d(func(s serve.Stats) int64 { return s.CacheEvictions }), served), "ratio"}
	m["serve.prepass_per_req"] = metric{ratio(d(func(s serve.Stats) int64 { return s.CandidatePrePass }), sent), "ratio"}
	wire := d(func(s serve.Stats) int64 {
		return s.WireBytes.InJSON + s.WireBytes.InBinary + s.WireBytes.OutJSON + s.WireBytes.OutBinary
	})
	m["shardrpc.wire_kb_per_req"] = metric{ratio(wire/1024, sent), "KB"}
	projHits := d(func(s serve.Stats) int64 { return s.ProjectionCacheHits })
	projMisses := d(func(s serve.Stats) int64 { return s.ProjectionCacheMisses })
	m["shardrpc.projection_hit_ratio"] = metric{ratio(projHits, projHits+projMisses), "ratio"}
	m["server.resp_kb_per_req"] = metric{ratio(float64(win.respBytes)/1024, sent), "KB"}

	// The slowest shard sets the fan-out time, so imbalance is max / mean
	// over the processes that run generation (the router is not one).
	var shardCPU []float64
	for i, dm := range f.daemons {
		if dm.name != "router" {
			shardCPU = append(shardCPU, win.cpuPer[i])
		}
	}
	peak, sum := 0.0, 0.0
	for _, c := range shardCPU {
		peak, sum = max(peak, c), sum+c
	}
	m["serve.shard_cpu_imbalance"] = metric{ratio(peak, sum/float64(len(shardCPU))), "ratio"}

	// In-process cost of request i on the path this workload takes.
	inprocMS := make(map[int]float64)
	for _, s := range inproc {
		var want string
		switch {
		case w.topo == topoSingleNoCache:
			want = "serve.match_cold"
		case w.topo == topoSingleCached:
			want = "serve.match_warm"
		case mixedIsHot(s.Trace):
			want = "serve.router_warm"
		default:
			want = "serve.router_cold"
		}
		if s.Name == want {
			inprocMS[s.Trace] = float64(s.durNS()) / 1e6
		}
	}
	var overhead []float64
ops:
	for i, lat := range win.latencyMS {
		o := w.opAt(i)
		in := 0.0
		for _, r := range o.reqs {
			ms, traced := inprocMS[r]
			if !traced {
				continue ops
			}
			in += ms
		}
		overhead = append(overhead, (lat-in)/float64(len(o.reqs)))
	}
	sumOver := 0.0
	for _, v := range overhead {
		sumOver += v
	}
	m["server.http_overhead_ms"] = metric{ratio(sumOver, float64(len(overhead))), "ms"}
}
