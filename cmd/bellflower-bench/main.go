// Command bellflower-bench measures the serving stack end to end and
// writes a machine-readable BENCH_<label>.json: per-variant ns/op, bytes
// and allocations per request, cache hit rates and per-stage latency
// medians over a fixed workload mix, the warm-path overhead of request
// tracing (traced vs untraced service throughput), and a head-to-head of
// the shard wire codecs (encoded body bytes and encode ns/op for JSON,
// binary and the slim projection-reference shape). Distributed variants
// additionally record the actual on-the-wire bytes per request broken
// down by codec, from the shard servers' transport counters.
//
//	bellflower-bench                       # full run, writes BENCH_10.json
//	bellflower-bench -quick -out /tmp/b.json
//	bellflower-bench -check BENCH_10.json  # validate an existing file (CI)
//	bellflower-bench -compare BENCH_9.json BENCH_10.json  # regression diff
//
// Variants cover the repository/topology grid the serving layers care
// about: a small and a large synthetic repository unsharded, the large
// repository sharded 4 ways in process, the large repository split across
// 2 distributed shard servers (hosted in process over HTTP, the closest
// single-binary approximation of -shard-of processes), and the same
// distributed split with 2 replicas per shard — the control-plane
// topology, pricing the replica indirection on the happy path. The
// workload cycles a fixed set of personal schemas, so each variant sees
// both cold pipeline runs and warm cache hits. Two distribution-shaped
// variants stress the matching kernel specifically: a skewed-vocabulary
// repository (near-zero name noise, so few distinct keys cover many
// nodes — vocabulary dedup's best case) and a hot-key request mix (90% of
// requests hit one signature, the cache-dominated worst case for kernel
// wins to matter). A match-kernel micro-section prices the keyed kernel
// head to head against the naive reference loop and pins the warm
// similarity call's ns and allocations. A gen-kernel micro-section prices
// the mapping-generation engine the same way: exhaustive
// generate-then-truncate against the adaptive shared-bound top-N search,
// sequential and parallel, on the workload mix and on a deeper clustered
// shape, plus a warm-search allocation probe.
//
// -quick shrinks repositories and iteration counts for CI smoke runs; the
// JSON shape is identical. -check parses a bench file and exits non-zero
// if it is malformed or incomplete, so CI can gate on the artifact.
// -compare diffs two bench files variant by variant and exits non-zero
// when a variant common to both regressed by more than -compare-threshold
// percent on ns/op or bytes/req — the recorded-artifact regression gate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"bellflower"
	"bellflower/internal/cluster"
	"bellflower/internal/labeling"
	"bellflower/internal/mapgen"
	"bellflower/internal/matcher"
	"bellflower/internal/objective"
	"bellflower/internal/pipeline"
	"bellflower/internal/serve"
	"bellflower/internal/shardrpc"
	"bellflower/internal/strsim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bellflower-bench:", err)
		os.Exit(1)
	}
}

type variantResult struct {
	Name           string             `json:"name"`
	RepoNodes      int                `json:"repo_nodes"`
	Shards         int                `json:"shards"`
	Distributed    bool               `json:"distributed,omitempty"`
	Requests       int64              `json:"requests"`
	NsPerOp        float64            `json:"ns_per_op"`
	BytesPerReq    float64            `json:"bytes_per_req"`
	AllocsPerReq   float64            `json:"allocs_per_req"`
	CacheHitRate   float64            `json:"cache_hit_rate"`
	StageMediansMS map[string]float64 `json:"stage_medians_ms"`

	// WireBytesPerReq (distributed variants only) is the actual traffic
	// that crossed the shard wire per served request, broken down by
	// codec (request and response bodies both directions, from the shard
	// servers' transport counters).
	WireBytesPerReq map[string]float64 `json:"wire_bytes_per_req,omitempty"`
}

// wireCodecResult prices one shard wire codec on a realistic staged
// request (projected candidates for a mid-size personal schema against
// the large repository): encoded body size and encode ns/op, plus — for
// the binary codec — the slim projection-reference body a client sends
// once the shard has the projection cached.
type wireCodecResult struct {
	Codec            string  `json:"codec"`
	FullRequestBytes int     `json:"full_request_bytes"`
	SlimRequestBytes int     `json:"slim_request_bytes,omitempty"`
	EncodeNsPerOp    float64 `json:"encode_ns_per_op"`
}

// overheadResult is the warm-path (pure cache hits, the
// BenchmarkServiceThroughput/warm steady state) cost of the tracing
// subsystem, in three arms:
//
//   - no_trace_ns_per_op: tracing globally disabled (SetTracingEnabled
//     false) — the no-trace baseline, instrumentation short-circuited.
//   - instrumented_ns_per_op: tracing enabled but no trace attached to
//     the request — the always-on instrumentation cost every library
//     caller pays; OverheadPct compares THIS to the baseline and is the
//     number the ≤3% budget governs.
//   - full_trace_ns_per_op: a request trace attached per call (what the
//     daemon does) — informational; buys a complete span tree per
//     request, and costs a few allocations.
type overheadResult struct {
	Benchmark           string  `json:"benchmark"`
	Iterations          int     `json:"iterations"`
	NoTraceNsPerOp      float64 `json:"no_trace_ns_per_op"`
	InstrumentedNsPerOp float64 `json:"instrumented_ns_per_op"`
	FullTraceNsPerOp    float64 `json:"full_trace_ns_per_op"`
	OverheadPct         float64 `json:"overhead_pct"`
}

// matchKernelResult prices the element-matching kernel in isolation: the
// full workload mix matched against the large repository through the naive
// reference loop versus the vocabulary-deduplicated keyed kernel, plus the
// warm prepared-similarity call's cost (the kernel's innermost operation,
// which must stay allocation-free).
type matchKernelResult struct {
	RepoNodes          int     `json:"repo_nodes"`
	VocabKeys          int     `json:"vocab_keys"`
	DistinctVocabRatio float64 `json:"distinct_vocab_ratio"`
	NaiveNsPerOp       float64 `json:"naive_ns_per_op"`
	KeyedNsPerOp       float64 `json:"keyed_ns_per_op"`
	Speedup            float64 `json:"speedup"`
	SimNsPerCall       float64 `json:"sim_ns_per_call"`
	SimAllocsPerCall   float64 `json:"sim_allocs_per_call"`
}

// genKernelShape prices the mapping-generation engine on one workload
// shape: exhaustive generate-then-truncate (what a non-adaptive top-N
// request pays) against the adaptive shared-bound branch-and-bound,
// sequential and fanned out over workers sharing one Δ floor. All three
// arms return bit-identical mappings — the property tests pin that — so
// the ns/op spread is pure search-efficiency.
type genKernelShape struct {
	Name               string  `json:"name"`
	Schemas            int     `json:"schemas"`
	TopN               int     `json:"top_n"`
	Parallelism        int     `json:"parallelism"`
	UsefulClusters     int     `json:"useful_clusters"`
	SearchSpace        float64 `json:"search_space"`
	TruncateNsPerOp    float64 `json:"truncate_ns_per_op"`
	AdaptiveSeqNsPerOp float64 `json:"adaptive_seq_ns_per_op"`
	AdaptiveParNsPerOp float64 `json:"adaptive_par_ns_per_op"`
	SeqSpeedup         float64 `json:"seq_speedup_vs_truncate"`
	ParSpeedup         float64 `json:"par_speedup_vs_truncate"`
}

// genKernelResult is the generation-engine micro-section: the per-shape
// head-to-head plus the warm-search allocation probe — a near-miss schema
// searched at δ=0.999 finds nothing, so a warm pooled search must not
// allocate at all (the AllocsPerRun regression tests pin the same
// property per entry point).
type genKernelResult struct {
	Shapes                []genKernelShape `json:"shapes"`
	WarmSearchAllocsPerOp float64          `json:"warm_search_allocs_per_op"`
}

type benchFile struct {
	Label         string             `json:"label"`
	GoVersion     string             `json:"go_version"`
	Quick         bool               `json:"quick"`
	Variants      []variantResult    `json:"variants"`
	WireCodecs    []wireCodecResult  `json:"wire_codecs,omitempty"`
	MatchKernel   *matchKernelResult `json:"match_kernel,omitempty"`
	GenKernel     *genKernelResult   `json:"gen_kernel,omitempty"`
	TraceOverhead overheadResult     `json:"trace_overhead"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("bellflower-bench", flag.ContinueOnError)
	var (
		label      = fs.String("label", "10", "bench label; the default output file is BENCH_<label>.json")
		out        = fs.String("out", "", "output path (default BENCH_<label>.json in the working directory)")
		quick      = fs.Bool("quick", false, "CI smoke mode: smaller repositories and fewer iterations, same JSON shape")
		check      = fs.String("check", "", "validate an existing bench JSON file and exit (no benchmarks run)")
		compare    = fs.String("compare", "", "regression-diff mode: compare this baseline bench JSON against the file named by the positional argument and exit (no benchmarks run)")
		compareTol = fs.Float64("compare-threshold", 25, "max tolerated regression, in percent, on ns/op and bytes/req per variant in -compare mode")
		seed       = fs.Int64("seed", 1, "synthetic repository seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *check != "" {
		return checkFile(*check)
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			return fmt.Errorf("-compare OLD.json needs exactly one positional argument (the new bench file), got %d", fs.NArg())
		}
		return compareFiles(*compare, fs.Arg(0), *compareTol)
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", *label)
	}

	smallNodes, largeNodes, iters := 600, 3000, 400
	if *quick {
		smallNodes, largeNodes, iters = 300, 900, 60
	}
	small, err := synthRepo(smallNodes, *seed)
	if err != nil {
		return err
	}
	large, err := synthRepo(largeNodes, *seed)
	if err != nil {
		return err
	}

	bf := benchFile{Label: *label, GoVersion: runtime.Version(), Quick: *quick}

	fmt.Fprintf(os.Stderr, "bellflower-bench: small=%d large=%d nodes, %d iterations per variant\n",
		smallNodes, largeNodes, iters)

	// Variant 1: small repository, unsharded.
	svc := bellflower.NewService(small, bellflower.ServiceConfig{})
	bf.Variants = append(bf.Variants, runVariant("small-unsharded", smallNodes, svc, iters))
	svc.Close()

	// Variant 2: large repository, unsharded.
	svc = bellflower.NewService(large, bellflower.ServiceConfig{})
	bf.Variants = append(bf.Variants, runVariant("large-unsharded", largeNodes, svc, iters))
	svc.Close()

	// Variant 3: large repository, 4 in-process shards.
	sharded := bellflower.NewShardedService(large, 4, bellflower.ServiceConfig{})
	v := runVariant("large-sharded4", largeNodes, sharded, iters)
	sharded.Close()
	bf.Variants = append(bf.Variants, v)

	// Variant 4: large repository across 2 distributed shard servers.
	dist, stop, err := distributedBackend(largeNodes, *seed, 2, 1)
	if err != nil {
		return err
	}
	v = runVariant("large-distributed2", largeNodes, dist, iters)
	v.Distributed = true
	dist.Close()
	stop()
	bf.Variants = append(bf.Variants, v)

	// Variant 5: the same distributed split with 2 replicas per shard —
	// every request pays the replica-group indirection (attempt ordering,
	// health bookkeeping) with all replicas healthy, pricing the control
	// plane's happy path against variant 4.
	dist, stop, err = distributedBackend(largeNodes, *seed, 2, 2)
	if err != nil {
		return err
	}
	v = runVariant("large-replicated2x2", largeNodes, dist, iters)
	v.Distributed = true
	dist.Close()
	stop()
	bf.Variants = append(bf.Variants, v)

	// Variant 6: skewed vocabulary — the same node count generated with
	// near-zero name noise, so a handful of distinct (name, datatype) keys
	// covers the whole repository. This is vocabulary dedup's best case;
	// the cold match stage should collapse relative to large-unsharded.
	skewed, err := skewedRepo(largeNodes, *seed)
	if err != nil {
		return err
	}
	svc = bellflower.NewService(skewed, bellflower.ServiceConfig{})
	bf.Variants = append(bf.Variants, runVariant("large-skewed-vocab", largeNodes, svc, iters))
	svc.Close()

	// Variant 7: hot-key request distribution — 90% of requests hit one
	// signature, the rest cycle the mix. The cache-dominated steady state
	// where kernel improvements must not regress the warm path.
	svc = bellflower.NewService(large, bellflower.ServiceConfig{})
	bf.Variants = append(bf.Variants, runVariantPick("large-hotkey", largeNodes, svc, iters, func(i, n int) int {
		if i%10 != 0 {
			return 0 // the hot key
		}
		return (i / 10) % n
	}))
	svc.Close()

	// Match-kernel head-to-head on the large repository.
	mkIters := 30
	if *quick {
		mkIters = 5
	}
	mk := matchKernelBench(large, mkIters)
	bf.MatchKernel = &mk

	// Generation-engine head-to-head on the large repository.
	gkIters := 30
	if *quick {
		gkIters = 5
	}
	if bf.GenKernel, err = genKernelBench(large, gkIters); err != nil {
		return err
	}

	// Wire-codec head-to-head on the large repository.
	wcIters := 300
	if *quick {
		wcIters = 50
	}
	if bf.WireCodecs, err = wireCodecBench(large, wcIters); err != nil {
		return err
	}

	// Warm-path tracing overhead on the small service. The arms differ by
	// tens of nanoseconds at most, so they need far longer runs than the
	// throughput variants to separate signal from scheduler noise.
	overheadIters := 25000
	if *quick {
		overheadIters = 8000
	}
	svc = bellflower.NewService(small, bellflower.ServiceConfig{})
	bf.TraceOverhead = traceOverhead(svc, overheadIters)
	svc.Close()

	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bellflower-bench: wrote %s (%d variants, trace overhead %.2f%%)\n",
		path, len(bf.Variants), bf.TraceOverhead.OverheadPct)
	return nil
}

func synthRepo(nodes int, seed int64) (*bellflower.Repository, error) {
	cfg := bellflower.DefaultSyntheticConfig()
	cfg.TargetNodes = nodes
	cfg.Seed = seed
	return bellflower.Synthetic(cfg)
}

// skewedRepo generates a repository with near-zero name noise: names come
// almost verbatim from the concept vocabulary, so the distinct
// (name, datatype) key count stays tiny relative to the node count.
func skewedRepo(nodes int, seed int64) (*bellflower.Repository, error) {
	cfg := bellflower.DefaultSyntheticConfig()
	cfg.TargetNodes = nodes
	cfg.Seed = seed
	cfg.NoiseRate = 0.02
	return bellflower.Synthetic(cfg)
}

// workload is the fixed personal-schema mix every variant cycles through:
// small and mid-size schemas with vocabulary the synthetic generator
// actually emits, so candidate sets are non-trivial. Cycling repeats each
// signature many times per run, exercising the warm cache path alongside
// the cold pipeline runs.
var workload = []string{
	"book(title,author)",
	"address(name,email)",
	"order(id,customer(name))",
	"book(title,author(first,last),isbn@)",
	"catalog(item(name,price))",
	"person(name,address(street,city))",
}

func parseWorkload() []*bellflower.Tree {
	trees := make([]*bellflower.Tree, len(workload))
	for i, spec := range workload {
		trees[i] = bellflower.MustParseSchema(spec)
	}
	return trees
}

func runVariant(name string, nodes int, backend bellflower.ServiceBackend, iters int) variantResult {
	return runVariantPick(name, nodes, backend, iters, func(i, n int) int { return i % n })
}

// runVariantPick is runVariant with an explicit request distribution:
// pick(i, n) maps iteration i to one of the n workload schemas. The round
// robin default exercises every signature evenly; the hot-key variant
// concentrates on one.
func runVariantPick(name string, nodes int, backend bellflower.ServiceBackend, iters int, pick func(i, n int) int) variantResult {
	ctx := context.Background()
	opts := bellflower.DefaultOptions()
	trees := parseWorkload()

	// Cold pass: every distinct signature runs the pipeline once.
	for _, tr := range trees {
		if _, err := backend.Match(ctx, tr, opts); err != nil {
			fmt.Fprintf(os.Stderr, "bellflower-bench: %s cold %v\n", name, err)
		}
	}

	// Best of 3 measured passes: ns/op at the warm-path microsecond scale
	// is dominated by where GC pauses and scheduler stalls happen to land,
	// so a single pass can read 40% high on an otherwise idle machine.
	// Taking each pass's own memstats window and keeping the minimum per
	// metric converges on the true cost, which is what a recorded artifact
	// gating -compare regressions must hold.
	var nsPerOp, bytesPerReq, allocsPerReq float64
	for pass := 0; pass < 3; pass++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := backend.Match(ctx, trees[pick(i, len(trees))], opts); err != nil {
				fmt.Fprintf(os.Stderr, "bellflower-bench: %s iter %d: %v\n", name, i, err)
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		ns := float64(elapsed.Nanoseconds()) / float64(iters)
		by := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(iters)
		al := float64(m1.Mallocs-m0.Mallocs) / float64(iters)
		if pass == 0 || ns < nsPerOp {
			nsPerOp = ns
		}
		if pass == 0 || by < bytesPerReq {
			bytesPerReq = by
		}
		if pass == 0 || al < allocsPerReq {
			allocsPerReq = al
		}
	}

	st := backend.Stats()
	res := variantResult{
		Name:           name,
		RepoNodes:      nodes,
		Shards:         backend.NumShards(),
		Requests:       st.Requests,
		NsPerOp:        nsPerOp,
		BytesPerReq:    bytesPerReq,
		AllocsPerReq:   allocsPerReq,
		StageMediansMS: map[string]float64{},
	}
	if st.Requests > 0 {
		res.CacheHitRate = float64(st.CacheHits) / float64(st.Requests)
	}
	for stage, ls := range st.Stages {
		res.StageMediansMS[stage] = ls.P50MS
	}
	if wb := st.WireBytes; st.Requests > 0 && wb.InJSON+wb.InBinary+wb.OutJSON+wb.OutBinary > 0 {
		res.WireBytesPerReq = map[string]float64{
			"json":   float64(wb.InJSON+wb.OutJSON) / float64(st.Requests),
			"binary": float64(wb.InBinary+wb.OutBinary) / float64(st.Requests),
		}
	}
	return res
}

// matchKernelBench prices the element-matching kernel in isolation, away
// from caches and fan-out: the full workload mix against repo through the
// naive reference loop (FindCandidatesAmong over every node) versus the
// keyed kernel (vocabulary dedup + pruning + parallel outer loop), best of
// 3 passes each, one op being the whole six-schema mix. The warm
// similarity call is timed and alloc-counted separately — it must stay at
// zero allocations, the property the strsim regression tests pin.
func matchKernelBench(repo *bellflower.Repository, iters int) matchKernelResult {
	opts := bellflower.DefaultOptions()
	cfg := matcher.Config{MinSim: opts.MinSim}
	m := matcher.NameMatcher{}
	trees := parseWorkload()

	ni := matcher.NewNameIndex(repo)
	vocab := ni.Vocabulary(repo.Nodes())

	best := func(run func()) float64 {
		var bestNs float64
		for pass := 0; pass < 3; pass++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				run()
			}
			if ns := float64(time.Since(start).Nanoseconds()) / float64(iters); pass == 0 || ns < bestNs {
				bestNs = ns
			}
		}
		return bestNs
	}
	naiveNs := best(func() {
		for _, tr := range trees {
			matcher.FindCandidates(tr, repo, m, cfg)
		}
	})
	keyedNs := best(func() {
		for _, tr := range trees {
			vocab.FindCandidates(tr, m, cfg)
		}
	})

	// Warm prepared-similarity call: ns and allocations per call.
	var sc strsim.Scorer
	pa, pb := strsim.Prepare("authorName"), strsim.Prepare("name_of_the_author")
	sc.Fuzzy(&pa, &pb) // warm the scratch rows
	const simCalls = 200000
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < simCalls; i++ {
		sc.Fuzzy(&pa, &pb)
	}
	simNs := float64(time.Since(start).Nanoseconds()) / simCalls
	runtime.ReadMemStats(&m1)

	res := matchKernelResult{
		RepoNodes:          repo.Len(),
		VocabKeys:          ni.Keys(),
		DistinctVocabRatio: ni.DistinctRatio(),
		NaiveNsPerOp:       naiveNs,
		KeyedNsPerOp:       keyedNs,
		SimNsPerCall:       simNs,
		SimAllocsPerCall:   float64(m1.Mallocs-m0.Mallocs) / simCalls,
	}
	if keyedNs > 0 {
		res.Speedup = naiveNs / keyedNs
	}
	return res
}

// genSink keeps the generation arms' results live so the compiler cannot
// hollow out a measured loop.
var genSink int

// genKernelBench prices the mapping-generation engine in isolation, away
// from caches and the serving stack. Two shapes: the standard workload mix
// over tree clusters (the per-tree baseline every variant pays), and a
// deeper/fatter configuration — nested schemas, lower MinSim, k-means
// medium clustering — where candidate sets multiply into large search
// spaces and the shared bound plus best-first scheduling have room to
// work. Per shape, best of 3 passes each: exhaustive generate-then-
// truncate, adaptive top-N sequential, adaptive top-N over 4 workers. A
// final probe measures warm-search allocations on a near-miss schema at
// δ=0.999 (every cluster planned, nothing found, so the pooled state must
// make the op allocation-free).
func genKernelBench(repo *bellflower.Repository, iters int) (*genKernelResult, error) {
	opts := pipeline.DefaultOptions()
	ix := labeling.NewIndex(repo)

	type prepared struct {
		gen    *mapgen.Generator
		useful []*cluster.Cluster
	}
	prep := func(specs []string, minSim float64, variant pipeline.Variant) ([]prepared, int, float64, error) {
		var ps []prepared
		usefulTotal, space := 0, 0.0
		for _, spec := range specs {
			personal := bellflower.MustParseSchema(spec)
			cands := matcher.FindCandidates(personal, repo, matcher.NameMatcher{}, matcher.Config{MinSim: minSim})
			copts := opts
			copts.Variant = variant
			clusters, _, err := pipeline.ComputeClusters(ix, cands, copts)
			if err != nil {
				return nil, 0, 0, err
			}
			full := uint64(1)<<uint(personal.Len()) - 1
			var useful []*cluster.Cluster
			for _, cl := range clusters {
				if cl.Useful(full) {
					useful = append(useful, cl)
				}
			}
			ev := objective.NewEvaluator(opts.Objective, ix, personal)
			gen := mapgen.New(mapgen.Config{Threshold: opts.Threshold}, ix, ev, cands)
			_, ctr := gen.GenerateTopN(useful, 1) // exact, schedule-independent counters
			usefulTotal += int(ctr.UsefulClusters)
			space += ctr.SearchSpace
			ps = append(ps, prepared{gen: gen, useful: useful})
		}
		return ps, usefulTotal, space, nil
	}

	best := func(run func()) float64 {
		var bestNs float64
		for pass := 0; pass < 3; pass++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				run()
			}
			if ns := float64(time.Since(start).Nanoseconds()) / float64(iters); pass == 0 || ns < bestNs {
				bestNs = ns
			}
		}
		return bestNs
	}

	const par = 4
	shapes := []struct {
		name    string
		specs   []string
		minSim  float64
		variant pipeline.Variant
		topN    int
	}{
		{"workload-mix", workload, opts.MinSim, pipeline.VariantTree, 5},
		{"deep-clustered", []string{
			"book(title,author(first,last),isbn@)",
			"person(name,address(street,city))",
		}, 0.35, pipeline.VariantMedium, 3},
	}
	res := &genKernelResult{}
	for _, sh := range shapes {
		ps, useful, space, err := prep(sh.specs, sh.minSim, sh.variant)
		if err != nil {
			return nil, err
		}
		topN := sh.topN
		truncateNs := best(func() {
			for _, p := range ps {
				ms, _ := p.gen.Generate(p.useful)
				if len(ms) > topN {
					ms = ms[:topN]
				}
				genSink = len(ms)
			}
		})
		seqNs := best(func() {
			for _, p := range ps {
				ms, _ := p.gen.GenerateTopNParallel(p.useful, topN, 1, nil)
				genSink = len(ms)
			}
		})
		parNs := best(func() {
			for _, p := range ps {
				ms, _ := p.gen.GenerateTopNParallel(p.useful, topN, par, nil)
				genSink = len(ms)
			}
		})
		s := genKernelShape{
			Name:               sh.name,
			Schemas:            len(sh.specs),
			TopN:               topN,
			Parallelism:        par,
			UsefulClusters:     useful,
			SearchSpace:        space,
			TruncateNsPerOp:    truncateNs,
			AdaptiveSeqNsPerOp: seqNs,
			AdaptiveParNsPerOp: parNs,
		}
		if seqNs > 0 {
			s.SeqSpeedup = truncateNs / seqNs
		}
		if parNs > 0 {
			s.ParSpeedup = truncateNs / parNs
		}
		res.Shapes = append(res.Shapes, s)
	}

	// Warm-search allocation probe: misspelled vocabulary keeps element
	// similarities below 1, so at δ=0.999 every cluster is planned and then
	// cut off by its bound — the searches produce no output, and a warm op
	// must allocate nothing.
	probe := bellflower.MustParseSchema("bok(titel,autor,prce)")
	probeCands := matcher.FindCandidates(probe, repo, matcher.NameMatcher{}, matcher.Config{MinSim: 0.3})
	probeClusters, _, err := pipeline.ComputeClusters(ix, probeCands, opts)
	if err != nil {
		return nil, err
	}
	full := uint64(1)<<uint(probe.Len()) - 1
	var probeUseful []*cluster.Cluster
	for _, cl := range probeClusters {
		if cl.Useful(full) {
			probeUseful = append(probeUseful, cl)
		}
	}
	probeGen := mapgen.New(mapgen.Config{Threshold: 0.999},
		ix, objective.NewEvaluator(opts.Objective, ix, probe), probeCands)
	runtime.GC() // empties the state pool; the warm-up op below refills it
	probeGen.GenerateTopNParallel(probeUseful, 3, 1, nil)
	const probeOps = 200
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < probeOps; i++ {
		ms, _ := probeGen.GenerateTopNParallel(probeUseful, 3, 1, nil)
		genSink = len(ms)
	}
	runtime.ReadMemStats(&m1)
	res.WarmSearchAllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / probeOps
	return res, nil
}

// distributedBackend builds n in-process shard servers over HTTP (each
// shard served by `replicas` identical hosts) and a distributed router
// fanning out to them — one binary standing in for n*replicas+1
// bellflower-server processes, with the real wire protocol (and trace
// stitching) between them.
func distributedBackend(nodes int, seed int64, n, replicas int) (bellflower.ServiceBackend, func(), error) {
	var servers []*httptest.Server
	var hosts []*bellflower.ShardHost
	var addrs []string
	stop := func() {
		for _, s := range servers {
			s.Close()
		}
		for _, h := range hosts {
			h.Close()
		}
	}
	for i := 0; i < n; i++ {
		var group []string
		for r := 0; r < replicas; r++ {
			repo, err := synthRepo(nodes, seed) // each process loads its own copy
			if err != nil {
				stop()
				return nil, nil, err
			}
			host, err := bellflower.NewShardHost(repo, i, n, bellflower.ServiceConfig{}, bellflower.PartitionClustered)
			if err != nil {
				stop()
				return nil, nil, err
			}
			hosts = append(hosts, host)
			mux := http.NewServeMux()
			mux.HandleFunc("/v1/shard/match", host.HandleMatch)
			mux.HandleFunc("/v1/shard/stats", host.HandleStats)
			srv := httptest.NewServer(mux)
			servers = append(servers, srv)
			group = append(group, srv.URL)
		}
		addrs = append(addrs, strings.Join(group, "|"))
	}
	routerRepo, err := synthRepo(nodes, seed)
	if err != nil {
		stop()
		return nil, nil, err
	}
	backend, err := bellflower.NewDistributedService(routerRepo, addrs, bellflower.ServiceConfig{}, bellflower.PartitionClustered)
	if err != nil {
		stop()
		return nil, nil, err
	}
	return backend, stop, nil
}

// wireCodecBench prices the shard wire codecs head to head on one
// realistic staged request: projected candidates for a mid-size personal
// schema against repo, the payload a distributed router ships per shard
// on every cold request. Reported per codec: encoded body size, encode
// ns/op (best of 3 passes), and for binary also the slim
// projection-reference body that replaces the full payload once the
// shard has the projection cached.
func wireCodecBench(repo *bellflower.Repository, iters int) ([]wireCodecResult, error) {
	ix := labeling.NewIndex(repo)
	view := serve.PartitionRepositoryViews(ix, 1, serve.PartitionClustered)[0]
	personal := bellflower.MustParseSchema(workload[3])
	opts := pipeline.DefaultOptions()
	cands := matcher.FindCandidates(personal, repo, matcher.NameMatcher{}, matcher.Config{MinSim: opts.MinSim}).
		Restrict(view.Contains)
	wopts, err := shardrpc.EncodeOptions(opts)
	if err != nil {
		return nil, err
	}
	wcands, err := shardrpc.EncodeCandidates(view, cands)
	if err != nil {
		return nil, err
	}
	req := shardrpc.MatchRequest{
		Descriptor:    shardrpc.ViewDescriptor(view, 0, 1, serve.PartitionClustered),
		Personal:      shardrpc.EncodeTree(personal),
		Signature:     serve.Signature(personal, opts),
		Options:       wopts,
		HasCandidates: true,
		Candidates:    wcands,
	}
	req.ProjectionHash = shardrpc.ProjectionDigest(&req)
	slim := req
	slim.ProjectionRef = true
	slim.HasCandidates, slim.Candidates = false, nil
	// The legacy JSON surface ships no projection-cache fields.
	jreq := req
	jreq.ProjectionHash = ""

	encNs := func(encode func()) float64 {
		var best float64
		for pass := 0; pass < 3; pass++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				encode()
			}
			if ns := float64(time.Since(start).Nanoseconds()) / float64(iters); pass == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	jsonBody, err := json.Marshal(jreq)
	if err != nil {
		return nil, err
	}
	return []wireCodecResult{
		{
			Codec:            "json",
			FullRequestBytes: len(jsonBody),
			EncodeNsPerOp:    encNs(func() { _, _ = json.Marshal(jreq) }),
		},
		{
			Codec:            "binary",
			FullRequestBytes: len(shardrpc.EncodeBinaryMatchRequest(&req)),
			SlimRequestBytes: len(shardrpc.EncodeBinaryMatchRequest(&slim)),
			EncodeNsPerOp:    encNs(func() { shardrpc.EncodeBinaryMatchRequest(&req) }),
		},
	}, nil
}

// traceOverhead measures the warm path — pure cache hits on one signature,
// the BenchmarkServiceThroughput/warm steady state — in three arms (see
// overheadResult). Arms are interleaved round-robin and each takes the
// best of five runs, so scheduler noise inflates no single side.
func traceOverhead(svc *bellflower.Service, iters int) overheadResult {
	ctx := context.Background()
	opts := bellflower.DefaultOptions()
	personal := bellflower.MustParseSchema(workload[0])
	if _, err := svc.Match(ctx, personal, opts); err != nil {
		fmt.Fprintf(os.Stderr, "bellflower-bench: overhead warmup: %v\n", err)
	}

	const (
		armNoTrace = iota
		armInstrumented
		armFullTrace
		numArms
	)
	loop := func(arm int) float64 {
		bellflower.SetTracingEnabled(arm != armNoTrace)
		defer bellflower.SetTracingEnabled(true)
		runtime.GC() // don't bill one arm for another arm's garbage
		start := time.Now()
		for i := 0; i < iters; i++ {
			c := ctx
			var root *bellflower.TraceSpan
			if arm == armFullTrace {
				c, _, root = bellflower.StartRequestTrace(ctx, "bench")
			}
			if _, err := svc.Match(c, personal, opts); err != nil {
				fmt.Fprintf(os.Stderr, "bellflower-bench: overhead iter: %v\n", err)
			}
			root.End()
		}
		return float64(time.Since(start).Nanoseconds()) / float64(iters)
	}

	// Throwaway pass per arm, then 5 interleaved rounds keeping each arm's
	// best.
	best := [numArms]float64{}
	for arm := 0; arm < numArms; arm++ {
		loop(arm)
	}
	for round := 0; round < 5; round++ {
		for arm := 0; arm < numArms; arm++ {
			v := loop(arm)
			if best[arm] == 0 || v < best[arm] {
				best[arm] = v
			}
		}
	}
	pct := (best[armInstrumented] - best[armNoTrace]) / best[armNoTrace] * 100
	if pct < 0 {
		pct = 0
	}
	return overheadResult{
		Benchmark:           "ServiceThroughputWarm",
		Iterations:          iters,
		NoTraceNsPerOp:      best[armNoTrace],
		InstrumentedNsPerOp: best[armInstrumented],
		FullTraceNsPerOp:    best[armFullTrace],
		OverheadPct:         pct,
	}
}

// checkFile validates a bench artifact: parseable JSON of the expected
// shape, at least four variants each with a positive ns/op and non-empty
// stage medians, and a measured trace overhead. CI gates on this instead
// of eyeballing the artifact.
func checkFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("%s: malformed JSON: %w", path, err)
	}
	if len(bf.Variants) < 4 {
		return fmt.Errorf("%s: %d variants, want at least 4", path, len(bf.Variants))
	}
	for _, v := range bf.Variants {
		if v.Name == "" || v.NsPerOp <= 0 {
			return fmt.Errorf("%s: variant %q has no ns/op", path, v.Name)
		}
		if len(v.StageMediansMS) == 0 {
			return fmt.Errorf("%s: variant %q has no stage medians", path, v.Name)
		}
	}
	for _, wc := range bf.WireCodecs {
		if wc.Codec == "" || wc.FullRequestBytes <= 0 || wc.EncodeNsPerOp <= 0 {
			return fmt.Errorf("%s: wire codec %q measurement incomplete", path, wc.Codec)
		}
		if wc.SlimRequestBytes > 0 && wc.SlimRequestBytes >= wc.FullRequestBytes {
			return fmt.Errorf("%s: codec %q slim body (%d bytes) not smaller than the full body (%d bytes)",
				path, wc.Codec, wc.SlimRequestBytes, wc.FullRequestBytes)
		}
	}
	if mk := bf.MatchKernel; mk != nil {
		if mk.NaiveNsPerOp <= 0 || mk.KeyedNsPerOp <= 0 || mk.VocabKeys <= 0 {
			return fmt.Errorf("%s: match-kernel measurement incomplete", path)
		}
		if mk.Speedup < 1 {
			return fmt.Errorf("%s: keyed matching kernel slower than the naive loop (speedup %.2fx)", path, mk.Speedup)
		}
		if mk.SimAllocsPerCall > 0.01 {
			return fmt.Errorf("%s: warm similarity call allocates (%.3f allocs/call, want 0)", path, mk.SimAllocsPerCall)
		}
	}
	if gk := bf.GenKernel; gk != nil {
		if len(gk.Shapes) < 2 {
			return fmt.Errorf("%s: gen-kernel section has %d shapes, want at least 2", path, len(gk.Shapes))
		}
		for _, s := range gk.Shapes {
			if s.Name == "" || s.TruncateNsPerOp <= 0 || s.AdaptiveSeqNsPerOp <= 0 ||
				s.AdaptiveParNsPerOp <= 0 || s.UsefulClusters <= 0 {
				return fmt.Errorf("%s: gen-kernel shape %q measurement incomplete", path, s.Name)
			}
			// Quick runs shrink the repository until per-op work is small
			// enough that worker spawn can dominate, so the head-to-head
			// win is only gated on recorded full runs.
			if !bf.Quick && s.ParSpeedup < 1 {
				return fmt.Errorf("%s: parallel adaptive top-N slower than generate-then-truncate on %q (%.2fx)",
					path, s.Name, s.ParSpeedup)
			}
		}
		if gk.WarmSearchAllocsPerOp > 0.5 {
			return fmt.Errorf("%s: warm adaptive search allocates (%.3f allocs/op, want 0)", path, gk.WarmSearchAllocsPerOp)
		}
		// The generation-stage budget the engine work buys: a recorded
		// full run must hold the hot-key variant's cold generate median at
		// half its pre-engine (BENCH_9) level.
		if !bf.Quick {
			for _, v := range bf.Variants {
				if v.Name == "large-hotkey" {
					if g := v.StageMediansMS["generate"]; g > 0.75 {
						return fmt.Errorf("%s: large-hotkey generate median %.2fms, budget is 0.75ms", path, g)
					}
				}
			}
		}
	}
	if bf.TraceOverhead.NoTraceNsPerOp <= 0 || bf.TraceOverhead.InstrumentedNsPerOp <= 0 {
		return fmt.Errorf("%s: missing trace overhead measurement", path)
	}
	fmt.Printf("%s: ok (%d variants, trace overhead %.2f%%)\n", path, len(bf.Variants), bf.TraceOverhead.OverheadPct)
	return nil
}

// loadFile parses and shape-checks a bench artifact for comparison.
func loadFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: malformed JSON: %w", path, err)
	}
	return &bf, nil
}

// compareFiles is the regression gate over two recorded artifacts: every
// variant present in BOTH files is diffed on ns/op and bytes/req, and any
// regression beyond tolPct percent fails the comparison. Variants present
// on only one side are reported but never fail — new topologies may be
// added (and obsolete ones retired) without invalidating old baselines —
// but at least one variant must be common, or the comparison would
// trivially pass while measuring nothing.
func compareFiles(oldPath, newPath string, tolPct float64) error {
	oldBF, err := loadFile(oldPath)
	if err != nil {
		return err
	}
	newBF, err := loadFile(newPath)
	if err != nil {
		return err
	}
	if oldBF.Quick != newBF.Quick {
		fmt.Fprintf(os.Stderr, "bellflower-bench: warning: comparing quick=%v against quick=%v artifacts\n", oldBF.Quick, newBF.Quick)
	}
	oldByName := make(map[string]variantResult, len(oldBF.Variants))
	for _, v := range oldBF.Variants {
		oldByName[v.Name] = v
	}

	pct := func(oldV, newV float64) float64 {
		if oldV <= 0 {
			return 0
		}
		return (newV - oldV) / oldV * 100
	}
	var regressions []string
	common := 0
	for _, nv := range newBF.Variants {
		ov, ok := oldByName[nv.Name]
		if !ok {
			fmt.Printf("%-22s new variant, no baseline\n", nv.Name)
			continue
		}
		common++
		delete(oldByName, nv.Name)
		nsPct, bytesPct := pct(ov.NsPerOp, nv.NsPerOp), pct(ov.BytesPerReq, nv.BytesPerReq)
		fmt.Printf("%-22s ns/op %12.0f -> %12.0f (%+6.1f%%)   bytes/req %12.0f -> %12.0f (%+6.1f%%)\n",
			nv.Name, ov.NsPerOp, nv.NsPerOp, nsPct, ov.BytesPerReq, nv.BytesPerReq, bytesPct)
		if nsPct > tolPct {
			regressions = append(regressions, fmt.Sprintf("%s: ns/op regressed %.1f%% (> %.1f%%)", nv.Name, nsPct, tolPct))
		}
		if bytesPct > tolPct {
			regressions = append(regressions, fmt.Sprintf("%s: bytes/req regressed %.1f%% (> %.1f%%)", nv.Name, bytesPct, tolPct))
		}
	}
	for name := range oldByName {
		fmt.Printf("%-22s retired variant, only in %s\n", name, oldPath)
	}
	if common == 0 {
		return fmt.Errorf("%s and %s share no variants; nothing was compared", oldPath, newPath)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d regression(s) beyond %.1f%%:\n  %s", len(regressions), tolPct, strings.Join(regressions, "\n  "))
	}
	fmt.Printf("%s -> %s: ok (%d variants compared, tolerance %.1f%%)\n", oldPath, newPath, common, tolPct)
	return nil
}
