package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"bellflower/internal/cluster"
	"bellflower/internal/labeling"
	"bellflower/internal/mapgen"
	"bellflower/internal/matcher"
	"bellflower/internal/pipeline"
	"bellflower/internal/schema"
	"bellflower/internal/serve"
	"bellflower/internal/shardrpc"
)

const setupRepeats = 5 // in-process set-up layers report the median of this many builds

// layerSetup times the layers a daemon runs once at start-up: generating
// the repository, indexing it, building the name-similarity index and
// partitioning it into two shard views. Each is the median of setupRepeats
// builds; sizes come from the layers' own MemoryBytes gauges.
func layerSetup(m map[string]metric) error {
	var genMS, ixMS, niMS, partMS []float64
	var ix *labeling.Index
	var ni *matcher.NameIndex
	ms := func(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		repo, err := servedRepository() // repogen.Generate behind the facade
		if err != nil {
			return err
		}
		genMS = append(genMS, ms(t0))
		t0 = time.Now()
		ix = labeling.NewIndex(repo)
		ixMS = append(ixMS, ms(t0))
		t0 = time.Now()
		ni = matcher.NewNameIndex(repo)
		niMS = append(niMS, ms(t0))
		t0 = time.Now()
		serve.PartitionRepositoryViews(ix, 2, serve.DefaultPartitionStrategy)
		partMS = append(partMS, ms(t0))
	}
	const mb = 1 << 20
	m["repogen.generate_ms"] = metric{median(genMS), "ms"}
	m["labeling.index_ms"] = metric{median(ixMS), "ms"}
	m["labeling.index_mb"] = metric{float64(ix.MemoryBytes()) / mb, "MB"}
	m["matcher.nameindex_ms"] = metric{median(niMS), "ms"}
	m["matcher.nameindex_mb"] = metric{float64(ni.MemoryBytes()) / mb, "MB"}
	m["matcher.distinct_vocab_ratio"] = metric{ni.DistinctRatio(), "ratio"}
	m["serve.partition_ms"] = metric{median(partMS), "ms"}
	return nil
}

// layerRun calls each layer's public functions, in pipeline order, on the
// workload's traced requests and records one span per call.
// Nothing here runs concurrently with a daemon: the numbers are the layers'
// own costs on an otherwise idle box.
//
// Per request the span tree is
//
//	request
//	├─ schema.parse, serve.signature
//	├─ pipeline.staged ── matcher.find, cluster.build, mapgen.generate
//	├─ pipeline.run                       (the same work in one call)
//	├─ serve.match_cold, serve.match_warm (Service, fresh key then repeat)
//	├─ serve.router_cold, serve.router_warm (two in-process shards)
//	└─ shard.wire ── serve.restrict, shardrpc.encode_req, shardrpc.decode_req,
//	                 shard.generate, shardrpc.encode_resp, shardrpc.decode_resp,
//	                 mapgen.merge        (what the distributed hop adds)
func layerRun(w *workload, rec *recorder) error {
	repo, err := servedRepository()
	if err != nil {
		return err
	}
	ix := labeling.NewIndex(repo)
	ni := matcher.NewNameIndex(repo)
	runner := pipeline.NewRunnerFromIndexes(ix, ni)
	// A warm call directly follows its cold call, so a few cache entries are
	// enough; the default 256 would pin every enumerated report (hundreds of
	// MB on cold-enumerate) and make each collection below slower.
	cfg := serve.Config{Workers: 2, CacheSize: 4}
	svc := serve.New(runner, cfg)
	defer svc.Close()
	router := serve.NewRouterFromRepository(repo, 2, cfg)
	defer router.Close()

	strategy := serve.DefaultPartitionStrategy
	sh := shardViews{views: serve.PartitionRepositoryViews(ix, 2, strategy)}
	sh.descs = shardrpc.ViewDescriptors(sh.views, strategy)
	for _, v := range sh.views {
		sh.runners = append(sh.runners, pipeline.NewViewRunnerWithNameIndex(v, ni))
	}

	ctx := context.Background()
	for _, i := range w.traced {
		rq := w.requests[i]
		opts := rq.pipelineOptions()
		root := rec.start(i, nil, "request")

		sp := rec.start(i, root, "schema.parse")
		tree, err := schema.ParseSpec(rq.Spec)
		if err != nil {
			return err
		}
		sp.end(map[string]float64{"nodes": float64(tree.Len())})
		sp = rec.start(i, root, "serve.signature")
		sig := serve.Signature(tree, opts)
		sp.end(map[string]float64{"bytes": float64(len(sig))})

		staged := rec.start(i, root, "pipeline.staged")
		sp = rec.start(i, staged, "matcher.find")
		cands := runner.MatchCandidates(tree, matcher.NameMatcher{}, matcher.Config{MinSim: opts.MinSim})
		sp.end(map[string]float64{"candidates": float64(cands.TotalMappingElements())})
		sp = rec.start(i, staged, "cluster.build")
		clusters, iterations, err := pipeline.ComputeClusters(ix, cands, opts)
		sp.end(map[string]float64{"clusters": float64(len(clusters)), "iterations": float64(iterations)})
		if err != nil {
			return err
		}
		sp = rec.start(i, staged, "mapgen.generate")
		rep, err := runner.RunWithClusters(ctx, tree, cands, clusters, iterations, opts)
		if err != nil {
			return err
		}
		sp.end(map[string]float64{
			"useful_clusters": float64(rep.UsefulClusters),
			"partials":        float64(rep.Counters.PartialMappings),
			"complete":        float64(rep.Counters.CompleteMappings),
			"returned":        float64(len(rep.Mappings)),
		})
		staged.end(nil)

		sp = rec.start(i, root, "pipeline.run")
		if _, err = runner.RunContext(ctx, tree, opts); err != nil {
			return err
		}
		sp.end(nil)

		for _, name := range []string{"serve.match_cold", "serve.match_warm"} {
			sp = rec.start(i, root, name)
			if _, err = svc.Match(ctx, tree, opts); err != nil {
				return err
			}
			sp.end(nil)
		}
		for _, name := range []string{"serve.router_cold", "serve.router_warm"} {
			sp = rec.start(i, root, name)
			if _, err = router.Match(ctx, tree, opts); err != nil {
				return err
			}
			sp.end(nil)
		}

		if err := sh.wireSpans(rec, i, root, tree, opts, cands, clusters, iterations); err != nil {
			return err
		}
		root.end(nil)

		// Enumerating requests leave tens of MB of garbage each; collecting
		// between requests keeps a collection from landing inside a span of
		// the next one.
		runtime.GC()
	}
	return nil
}

// shardViews is the two-shard partition of the served repository, as the
// router and the shard daemons build it: per shard its view, its wire
// descriptor and a generation-only runner.
type shardViews struct {
	views   []*labeling.View
	descs   []shardrpc.Descriptor
	runners []*pipeline.Runner
}

// wireSpans replays, per shard view, what the distributed hop adds on a
// cold request: restricting the pre-pass result to the view, encoding and
// decoding the binary request, generating on the shard, encoding and
// decoding the binary response, and merging the shard reports.
func (sh shardViews) wireSpans(rec *recorder, i int, root *span, tree *schema.Tree, opts pipeline.Options,
	cands *matcher.Candidates, clusters []*cluster.Cluster, iterations int) error {
	ctx := context.Background()
	views, descs, runners := sh.views, sh.descs, sh.runners
	wire := rec.start(i, root, "shard.wire")

	sp := rec.start(i, wire, "serve.restrict")
	restricted := make([]*matcher.Candidates, len(views))
	for k, v := range views {
		restricted[k] = cands.Restrict(v.Contains)
	}
	sp.end(nil)
	perShard := make([][]*cluster.Cluster, len(views))
	for k := range perShard {
		perShard[k] = []*cluster.Cluster{}
	}
	for _, cl := range clusters {
		// Clusters never span trees, so the first element places the cluster.
		for k, v := range views {
			if cl.Len() > 0 && v.Contains(cl.Elements[0].Node) {
				perShard[k] = append(perShard[k], cl)
			}
		}
	}

	lists := make([][]mapgen.Mapping, len(views))
	for k, v := range views {
		sp = rec.start(i, wire, "shardrpc.encode_req")
		wopts, err := shardrpc.EncodeOptions(opts)
		if err != nil {
			return err
		}
		req := shardrpc.MatchRequest{
			Descriptor:    descs[k],
			Personal:      shardrpc.EncodeTree(tree),
			Signature:     serve.Signature(tree, opts),
			Options:       wopts,
			Iterations:    iterations,
			HasCandidates: true,
			HasClusters:   true,
		}
		if req.Candidates, err = shardrpc.EncodeCandidates(v, restricted[k]); err != nil {
			return err
		}
		if req.Clusters, err = shardrpc.EncodeClusters(v, perShard[k]); err != nil {
			return err
		}
		req.ProjectionHash = shardrpc.ProjectionDigest(&req)
		reqBytes := shardrpc.EncodeBinaryMatchRequest(&req)
		sp.end(map[string]float64{"bytes": float64(len(reqBytes))})

		sp = rec.start(i, wire, "shardrpc.decode_req")
		dreq, err := shardrpc.DecodeBinaryMatchRequest(reqBytes)
		if err != nil {
			return err
		}
		dtree, err := shardrpc.DecodeTree(dreq.Personal)
		if err != nil {
			return err
		}
		dopts, err := shardrpc.DecodeOptions(dreq.Options)
		if err != nil {
			return err
		}
		dcands, err := shardrpc.DecodeCandidates(v, dtree, dreq.Candidates)
		if err != nil {
			return err
		}
		dclusters, err := shardrpc.DecodeClusters(v, dreq.Clusters)
		if err != nil {
			return err
		}
		sp.end(nil)

		sp = rec.start(i, wire, "shard.generate")
		srep, err := runners[k].RunWithClusters(ctx, dtree, dcands, dclusters, dreq.Iterations, dopts)
		if err != nil {
			return fmt.Errorf("shard %d generate: %w", k, err)
		}
		sp.end(nil)

		sp = rec.start(i, wire, "shardrpc.encode_resp")
		wrep, err := shardrpc.EncodeReport(v, srep)
		if err != nil {
			return err
		}
		respBytes := shardrpc.EncodeBinaryMatchResponse(&shardrpc.MatchResponse{Report: wrep})
		sp.end(map[string]float64{"bytes": float64(len(respBytes))})

		sp = rec.start(i, wire, "shardrpc.decode_resp")
		dresp, err := shardrpc.DecodeBinaryMatchResponse(respBytes)
		if err != nil {
			return err
		}
		back, err := shardrpc.DecodeReport(v, dresp.Report)
		if err != nil {
			return err
		}
		sp.end(nil)
		lists[k] = back.Mappings
	}

	sp = rec.start(i, wire, "mapgen.merge")
	merged := mapgen.MergeRanked(lists, opts.TopN)
	sp.end(map[string]float64{"mappings": float64(len(merged))})
	wire.end(nil)
	return nil
}

// layerMetrics turns the recorded spans into the per-request layer
// metrics. Times are means over the traced requests.
func layerMetrics(spans []span, m map[string]metric) {
	agg := aggregate(spans)
	n := float64(agg["request"].n)
	get := func(name string) *spanStats {
		if st := agg[name]; st != nil {
			return st
		}
		return &spanStats{counts: map[string]float64{}}
	}
	meanUS := func(name string) float64 { return float64(get(name).durNS) / 1e3 / n }
	meanMS := func(name string) float64 { return float64(get(name).durNS) / 1e6 / n }
	m["schema.parse_us"] = metric{meanUS("schema.parse"), "us"}
	m["serve.signature_us"] = metric{meanUS("serve.signature"), "us"}

	find, build, gen := get("matcher.find"), get("cluster.build"), get("mapgen.generate")
	m["matcher.find_ms"] = metric{meanMS("matcher.find"), "ms"}
	m["matcher.candidates_per_req"] = metric{find.counts["candidates"] / n, "count"}
	m["cluster.build_ms"] = metric{meanMS("cluster.build"), "ms"}
	m["cluster.clusters_per_req"] = metric{build.counts["clusters"] / n, "count"}
	m["cluster.iterations_per_req"] = metric{build.counts["iterations"] / n, "count"}
	m["cluster.useful_ratio"] = metric{ratio(gen.counts["useful_clusters"], build.counts["clusters"]), "ratio"}
	m["mapgen.generate_ms"] = metric{meanMS("mapgen.generate"), "ms"}
	m["mapgen.partials_per_req"] = metric{gen.counts["partials"] / n, "count"}
	m["mapgen.kept_ratio"] = metric{ratio(gen.counts["returned"], gen.counts["complete"]), "ratio"}
	m["mapgen.merge_us"] = metric{meanUS("mapgen.merge"), "us"}

	run := meanMS("pipeline.run")
	stagedSum := meanMS("matcher.find") + meanMS("cluster.build") + meanMS("mapgen.generate")
	m["pipeline.run_ms"] = metric{run, "ms"}
	m["pipeline.unattributed_pct"] = metric{100 * ratio(run-stagedSum, run), "%"}
	m["bench.trace_overhead_pct"] = metric{100 * ratio(meanMS("pipeline.staged")-run, run), "%"}

	m["serve.match_cold_ms"] = metric{meanMS("serve.match_cold"), "ms"}
	m["serve.overhead_cold_us"] = metric{(meanMS("serve.match_cold") - run) * 1e3, "us"}
	m["serve.match_warm_us"] = metric{meanUS("serve.match_warm"), "us"}
	m["serve.router_match_cold_ms"] = metric{meanMS("serve.router_cold"), "ms"}
	m["serve.router_match_warm_us"] = metric{meanUS("serve.router_warm"), "us"}
	m["serve.restrict_us"] = metric{meanUS("serve.restrict"), "us"}

	for _, leg := range []string{"encode_req", "decode_req", "encode_resp", "decode_resp"} {
		m["shardrpc."+leg+"_us"] = metric{meanUS("shardrpc." + leg), "us"}
	}
	m["shardrpc.req_kb"] = metric{get("shardrpc.encode_req").counts["bytes"] / 1024 / n, "KB"}
	m["shardrpc.resp_kb"] = metric{get("shardrpc.encode_resp").counts["bytes"] / 1024 / n, "KB"}
}
