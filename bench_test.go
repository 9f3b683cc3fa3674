package bellflower

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (Sec. 5), plus ablation benchmarks for the design choices the
// package docs of internal/mapgen, internal/cluster and internal/labeling
// call out. Run with:
//
//	go test -bench=. -benchmem
//
// The per-variant benchmarks report the paper's machine-independent
// efficiency indicators (search-space size, partial mappings, mappings
// found) as custom metrics alongside wall-clock time, so the table shapes
// are visible straight from the benchmark output.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bellflower/internal/cluster"
	"bellflower/internal/experiments"
	"bellflower/internal/matcher"
	"bellflower/internal/objective"
	"bellflower/internal/pipeline"
	"bellflower/internal/schema"
	"bellflower/internal/serve"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
)

// env lazily builds the paper-scale environment (9759-node repository)
// shared by all benchmarks.
func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		e, err := experiments.NewEnv(experiments.DefaultSetup())
		if err != nil {
			panic(err)
		}
		benchEnv = e
	})
	return benchEnv
}

func benchOptions(e *experiments.Env, v pipeline.Variant) pipeline.Options {
	return pipeline.Options{
		Objective: objective.Params{Alpha: e.Setup.Alpha, K: e.Setup.K},
		Threshold: e.Setup.Threshold,
		MinSim:    e.Setup.MinSim,
		Variant:   v,
	}
}

// BenchmarkTable1 regenerates both halves of Table 1: for every clustering
// variant it runs the full pipeline and reports search space, partial
// mappings and mappings found as custom metrics.
func BenchmarkTable1(b *testing.B) {
	e := env(b)
	for _, v := range pipeline.Variants() {
		b.Run(v.String(), func(b *testing.B) {
			var rep *pipeline.Report
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = e.Runner.Run(e.Personal, benchOptions(e, v))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.Counters.SearchSpace, "searchspace")
			b.ReportMetric(float64(rep.Counters.PartialMappings), "partials")
			b.ReportMetric(float64(len(rep.Mappings)), "mappings")
			b.ReportMetric(float64(rep.UsefulClusters), "useful-clusters")
		})
	}
}

// BenchmarkFig4Reclustering regenerates Fig. 4: the k-means run under each
// reclustering strategy, reporting the resulting cluster count.
func BenchmarkFig4Reclustering(b *testing.B) {
	e := env(b)
	cands := matcher.FindCandidates(e.Personal, e.Repo, matcher.NameMatcher{},
		matcher.Config{MinSim: e.Setup.MinSim})
	ix := e.Runner.Index()
	cfgs := []struct {
		name string
		cfg  cluster.Config
	}{
		{"none", func() cluster.Config {
			c := cluster.DefaultConfig()
			c.JoinThreshold, c.RemoveBelow, c.SplitAbove = 0, 0, 0
			return c
		}()},
		{"join", func() cluster.Config {
			c := cluster.DefaultConfig()
			c.RemoveBelow, c.SplitAbove = 0, 0
			return c
		}()},
		{"join-remove", func() cluster.Config {
			c := cluster.DefaultConfig()
			c.SplitAbove = 0
			return c
		}()},
	}
	for _, tc := range cfgs {
		b.Run(tc.name, func(b *testing.B) {
			var res *cluster.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = cluster.KMeans(ix, cands, tc.cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(res.Clusters)), "clusters")
			b.ReportMetric(float64(res.Iterations), "iterations")
		})
	}
}

// BenchmarkFig5Preservation regenerates Fig. 5: preservation of mappings
// per variant against the tree baseline at δ = 0.75 and δ = 0.9.
func BenchmarkFig5Preservation(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig5(e)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for vi, label := range res.Labels {
				curve := res.Curves[vi]
				b.ReportMetric(curve[0].Preserved, label+"-preserved@0.75")
			}
		}
	}
}

// BenchmarkFig6Alpha regenerates Fig. 6: preservation under the three
// objective-function variants.
func BenchmarkFig6Alpha(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6(e)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for ai, alpha := range res.Alphas {
				name := "preserved@0.75-alpha"
				switch alpha {
				case 0.25:
					name += "025"
				case 0.5:
					name += "050"
				default:
					name += "075"
				}
				b.ReportMetric(res.Curves[ai][0].Preserved, name)
			}
		}
	}
}

// BenchmarkEndToEnd measures the paper's bottom-line comparison: total
// matching time, non-clustered vs medium clusters.
func BenchmarkEndToEnd(b *testing.B) {
	e := env(b)
	for _, v := range []pipeline.Variant{pipeline.VariantTree, pipeline.VariantMedium} {
		b.Run(v.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Runner.Run(e.Personal, benchOptions(e, v)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation benchmarks (design choices from the mapgen, cluster and labeling package docs) ---

// BenchmarkAblationDistance compares the O(1) labelling-based tree distance
// against naive parent walking, the hot operation of k-means assignment.
func BenchmarkAblationDistance(b *testing.B) {
	e := env(b)
	ix := e.Runner.Index()
	// Collect same-tree query pairs.
	type pair struct{ a, b *schema.Node }
	var pairs []pair
	for _, t := range e.Repo.Trees() {
		ns := t.Nodes()
		for i := 0; i < len(ns) && len(pairs) < 4096; i += 7 {
			pairs = append(pairs, pair{ns[i], ns[(i*3+1)%len(ns)]})
		}
	}
	b.Run("labeled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			ix.DistanceID(p.a.ID, p.b.ID)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			p.a.Tree().Distance(p.a, p.b)
		}
	})
}

// BenchmarkAblationClusterer compares the adapted k-means against
// single-linkage agglomerative clustering on the full pipeline.
func BenchmarkAblationClusterer(b *testing.B) {
	e := env(b)
	for _, agg := range []bool{false, true} {
		name := "kmeans"
		if agg {
			name = "agglomerative"
		}
		b.Run(name, func(b *testing.B) {
			var rep *pipeline.Report
			for i := 0; i < b.N; i++ {
				opts := benchOptions(e, pipeline.VariantMedium)
				opts.Agglomerative = agg
				var err error
				rep, err = e.Runner.Run(e.Personal, opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.Clusters), "clusters")
			b.ReportMetric(float64(len(rep.Mappings)), "mappings")
			b.ReportMetric(rep.Counters.SearchSpace, "searchspace")
		})
	}
}

// BenchmarkElementMatching isolates step ② — the quadratic candidate
// search — at paper scale.
func BenchmarkElementMatching(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		matcher.FindCandidates(e.Personal, e.Repo, matcher.NameMatcher{},
			matcher.Config{MinSim: e.Setup.MinSim})
	}
}

// BenchmarkServiceThroughput measures served matches/sec through the
// concurrent matching service at paper scale, the baseline for future
// serving-path optimisations. "warm" repeats one request (cache-hit path);
// "cold" gives every request a unique signature (full pipeline run per
// request). The sharded variants fan every request out across 4 repository
// shards and merge the ranked lists — the same top-N report via
// shard-parallel matching. "sharded4-cold" exercises the router's shared
// candidate pre-pass (element matching and clustering once per candidate
// signature, projected per shard). Requests issue from parallel clients, as
// a daemon would see.
//
// Memory footprint is part of the measurement: every variant reports
// allocations (ReportAllocs) and an "index-bytes" gauge — the resident
// labelling-index memory. The sharded variants run view-backed shards over
// ONE shared index, so their index-bytes equal the unsharded figure.
func BenchmarkServiceThroughput(b *testing.B) {
	e := env(b)
	for _, tc := range []struct {
		name   string
		shards int
		cold   bool
	}{
		{name: "warm", shards: 1},
		{name: "cold", shards: 1, cold: true},
		{name: "sharded4-warm", shards: 4},
		{name: "sharded4-cold", shards: 4, cold: true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var backend serve.Backend
			if tc.shards > 1 {
				backend = serve.NewRouterFromRepository(e.Repo, tc.shards, serve.Config{})
			} else {
				backend = serve.New(e.Runner, serve.Config{})
			}
			defer backend.Close()
			var uniq atomic.Int64
			b.ReportAllocs()
			start := time.Now()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					opts := benchOptions(e, pipeline.VariantMedium)
					if tc.cold {
						// A unique huge TopN changes the request signature
						// (busting cache and dedupe) without changing the
						// work: the ranked list is never that long.
						opts.TopN = int(1e9 + uniq.Add(1))
					}
					if _, err := backend.Match(context.Background(), e.Personal, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			elapsed := time.Since(start).Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N)/elapsed, "matches/sec")
			}
			st := backend.Stats()
			b.ReportMetric(float64(st.CacheHits), "cache-hits")
			b.ReportMetric(float64(st.PipelineRuns), "pipeline-runs")
			b.ReportMetric(float64(st.CandidatePrePass), "prepass-runs")
			// Resident labelling-index bytes: the shared-index shard variants
			// must sit at the unsharded figure.
			b.ReportMetric(float64(st.IndexBytes), "index-bytes")
			b.ReportMetric(float64(st.CacheBytes), "cache-bytes")
		})
	}
}
