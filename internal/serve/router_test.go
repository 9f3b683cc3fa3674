package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"bellflower/internal/mapgen"
	"bellflower/internal/pipeline"
	"bellflower/internal/repogen"
	"bellflower/internal/schema"
)

// localShard returns the i-th shard of a router built over in-process
// services.
func localShard(r *Router, i int) *Service { return r.shards[i].(*Service) }

func syntheticRepo(t testing.TB, nodes int, seed int64) *schema.Repository {
	t.Helper()
	cfg := repogen.DefaultConfig()
	cfg.TargetNodes = nodes
	cfg.Seed = seed
	repo, err := repogen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return repo
}

// reportKeys renders each mapping by its score plus the repository tree
// name and image paths — no cluster IDs, which a shard's own clustering
// (no pre-pass) numbers locally.
func reportKeys(rep *pipeline.Report) []string {
	keys := make([]string, len(rep.Mappings))
	for i, m := range rep.Mappings {
		var b strings.Builder
		fmt.Fprintf(&b, "%.12f", m.Score.Delta)
		for _, img := range m.Images {
			b.WriteString("|")
			b.WriteString(img.Tree().Name)
			b.WriteString(img.PathString())
		}
		keys[i] = b.String()
	}
	return keys
}

// rankKeys renders a report's ranked output exactly: one line per mapping
// (Δ, cluster ID, image node IDs) in rank order, then one per partial
// mapping (an uncovered position as -). Node and cluster IDs are global —
// every shard is a view over one index and searches whole clusters of one
// pre-pass — so a sharded report reproduces the unsharded keys line for
// line.
func rankKeys(rep *pipeline.Report) string {
	var b strings.Builder
	for _, m := range rep.Mappings {
		fmt.Fprintf(&b, "%v c%d", m.Score.Delta, m.ClusterID)
		for _, img := range m.Images {
			fmt.Fprintf(&b, " %d", img.ID)
		}
		b.WriteByte('\n')
	}
	for _, p := range rep.Partials {
		fmt.Fprintf(&b, "partial %v c%d", p.Score.Delta, p.ClusterID)
		for _, img := range p.Images {
			if img == nil {
				b.WriteString(" -")
			} else {
				fmt.Fprintf(&b, " %d", img.ID)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// cutReport is the unsharded enumeration cut to its first n mappings: the
// reference for a top-N request, never another top-N search.
func cutReport(rep *pipeline.Report, n int) *pipeline.Report {
	cut := *rep
	if len(cut.Mappings) > n {
		cut.Mappings = cut.Mappings[:n]
	}
	return &cut
}

func TestRouterGoldenVsUnsharded(t *testing.T) {
	repo := syntheticRepo(t, 900, 7)
	personal := schema.MustParseSpec("address(name,email)")
	opts := pipeline.DefaultOptions()
	opts.Variant = pipeline.VariantTree
	opts.MinSim = 0.3
	opts.Threshold = 0.6

	direct, err := pipeline.NewRunner(repo).Run(personal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Mappings) == 0 {
		t.Fatal("unsharded run found no mappings; golden comparison is vacuous")
	}

	r := NewRouterFromRepository(repo, 4, Config{})
	defer r.Close()
	if r.NumShards() != 4 {
		t.Fatalf("router has %d shards, want 4", r.NumShards())
	}
	sharded, err := r.Match(context.Background(), personal, opts)
	if err != nil {
		t.Fatal(err)
	}

	// The full δ-mode result must be identical, rank for rank.
	if want, got := rankKeys(direct), rankKeys(sharded); got != want {
		t.Fatalf("sharded report differs:\n--- unsharded\n%s--- sharded\n%s", want, got)
	}

	// Rolled-up instrumentation must agree with the unsharded run: the same
	// clusters are searched against a fixed δ floor, just elsewhere, so
	// every counter sums to the unsharded one.
	if sharded.Counters != direct.Counters {
		t.Errorf("counters %+v, want %+v", sharded.Counters, direct.Counters)
	}
	if sharded.UsefulClusters != direct.UsefulClusters {
		t.Errorf("useful clusters %d, want %d", sharded.UsefulClusters, direct.UsefulClusters)
	}
	if sharded.MappingElements != direct.MappingElements {
		t.Errorf("mapping elements %d, want %d", sharded.MappingElements, direct.MappingElements)
	}

	// Top-N truncation: the global top N, mapping for mapping.
	for _, topN := range []int{1, 3, 10} {
		o := opts
		o.TopN = topN
		s, err := r.Match(context.Background(), personal, o)
		if err != nil {
			t.Fatal(err)
		}
		if want, got := rankKeys(cutReport(direct, topN)), rankKeys(s); got != want {
			t.Errorf("topN=%d: sharded\n%swant\n%s", topN, got, want)
		}
	}
}

// TestRouterClusteredVariantExactWithPrePass: a pre-pass router clusters
// once globally, so even the k-means variants — historically a per-shard
// approximation — reproduce the unsharded result exactly, rank for rank.
// The shards' own full pipelines (no pre-pass) cluster per shard, where
// only well-formedness is promised.
func TestRouterClusteredVariantExactWithPrePass(t *testing.T) {
	repo := syntheticRepo(t, 900, 7)
	personal := schema.MustParseSpec("address(name,email)")
	opts := pipeline.DefaultOptions()
	opts.Variant = pipeline.VariantMedium
	opts.MinSim = 0.3
	opts.Threshold = 0.6

	direct, err := pipeline.NewRunner(repo).Run(personal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Mappings) == 0 {
		t.Fatal("unsharded medium clustering found no mappings; comparison is vacuous")
	}
	r := NewRouterFromRepository(repo, 4, Config{})
	defer r.Close()
	sharded, err := r.Match(context.Background(), personal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want, got := rankKeys(direct), rankKeys(sharded); got != want {
		t.Fatalf("k-means sharded report differs:\n--- unsharded\n%s--- sharded\n%s", want, got)
	}
	if sharded.Clusters != direct.Clusters || sharded.UsefulClusters != direct.UsefulClusters {
		t.Errorf("clusters %d/%d, want %d/%d (global clustering must project exactly)",
			sharded.Clusters, sharded.UsefulClusters, direct.Clusters, direct.UsefulClusters)
	}
	if sharded.Iterations != direct.Iterations {
		t.Errorf("iterations %d, want %d", sharded.Iterations, direct.Iterations)
	}

	// Per-shard clustering (the shards' own full pipelines): well-formed,
	// but no exactness claim.
	noPre := NewRouterFromRepository(repo, 4, Config{})
	defer noPre.Close()
	reps := make([]*pipeline.Report, noPre.NumShards())
	for i := range reps {
		if reps[i], err = localShard(noPre, i).Match(context.Background(), personal, opts); err != nil {
			t.Fatal(err)
		}
	}
	perShard := mergeReports(reps, opts.TopN)
	if len(perShard.Mappings) == 0 {
		t.Errorf("per-shard medium clustering found no mappings")
	}
	for i, m := range perShard.Mappings {
		if m.Score.Delta < opts.Threshold {
			t.Errorf("mapping %d below threshold: Δ=%v", i, m.Score.Delta)
		}
		if i > 0 && m.Score.Delta > perShard.Mappings[i-1].Score.Delta {
			t.Errorf("merged list not ranked at %d", i)
		}
	}
}

// slowMatcher sleeps whenever it scores a repository node with the trigger
// name, letting tests make exactly one shard slow.
type slowMatcher struct {
	trigger string
	delay   time.Duration
}

func (m slowMatcher) Name() string { return "slow" }
func (m slowMatcher) Similarity(p, r *schema.Node) float64 {
	if r.Name == m.trigger {
		time.Sleep(m.delay)
	}
	return 0.9
}

func TestRouterDeadlineOnOneShard(t *testing.T) {
	// One tree per shard (equal sizes, balanced: repository order). The
	// element matcher never sleeps, so the pre-pass is fast; the structure
	// matcher rescores inside each shard's generation stage and sleeps only
	// where "slowpoke" lives.
	repo := schema.NewRepository()
	repo.MustAdd(schema.MustParseSpec("store(book(title,author))"))
	repo.MustAdd(schema.MustParseSpec("archive(tome(slowpoke,author))"))
	r := NewRouterWithPartition(repo, 2, Config{Workers: 1}, PartitionBalanced)
	defer r.Close()

	opts := testOpts()
	opts.Matcher = slowMatcher{}
	opts.StructureMatcher = slowMatcher{trigger: "slowpoke", delay: 100 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := r.Match(ctx, personal(), opts)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded: a merge missing one shard must not be presented as complete", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("router released the caller after %v", elapsed)
	}
	// The fast shard completed its run and cached the result for a retry.
	waitUntil(t, func() bool { return localShard(r, 0).Stats().PipelineRuns == 1 })
	if errs := localShard(r, 1).Stats().Errors; errs == 0 {
		t.Error("slow shard recorded no error for the expired request")
	}
}

func TestRouterRewriteRoutesToOwningShard(t *testing.T) {
	r := NewRouterFromRepository(testRepo(t), 3, Config{})
	defer r.Close()

	rep, err := r.Match(context.Background(), personal(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mappings) < 2 {
		t.Fatalf("need mappings from more than one shard, got %d", len(rep.Mappings))
	}
	for i, m := range rep.Mappings {
		got, err := r.RewriteQuery("/book/title", personal(), m)
		if err != nil {
			t.Fatalf("mapping %d (cluster %d): %v", i, m.ClusterID, err)
		}
		if len(got) == 0 || got[0] != '/' {
			t.Errorf("mapping %d rewrote to %q", i, got)
		}
	}

	// A mapping from a different repository (the unpartitioned original)
	// must be rejected, not silently rewritten against the wrong index.
	direct, err := pipeline.NewRunner(testRepo(t)).Run(personal(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RewriteQuery("/book/title", personal(), direct.Mappings[0]); err == nil {
		t.Error("foreign mapping accepted")
	}
	if _, err := r.RewriteQuery("/book/title", personal(), mapgen.Mapping{}); err == nil {
		t.Error("empty mapping accepted")
	}
}

func TestRouterStatsRollup(t *testing.T) {
	r := NewRouterFromRepository(testRepo(t), 2, Config{})
	defer r.Close()

	for i := 0; i < 2; i++ {
		if _, err := r.Match(context.Background(), personal(), testOpts()); err != nil {
			t.Fatal(err)
		}
	}
	st, per := r.Snapshot()
	if len(per) != 2 {
		t.Fatalf("Snapshot returned %d shard entries, want 2", len(per))
	}
	// Each router-level request counts once per shard in the rollup.
	if st.Requests != 4 {
		t.Errorf("rolled-up requests = %d, want 4 (2 requests × 2 shards)", st.Requests)
	}
	if st.CacheHits < 2 {
		t.Errorf("rolled-up cache hits = %d, want ≥ 2 (second request hits every shard)", st.CacheHits)
	}
	if st.Latency.Count != per[0].Latency.Count+per[1].Latency.Count {
		t.Errorf("latency counts don't roll up: %d vs %d+%d",
			st.Latency.Count, per[0].Latency.Count, per[1].Latency.Count)
	}

	repoStats := r.RepositoryStats()
	orig := testRepo(t).Stats()
	if repoStats.Trees != orig.Trees || repoStats.Nodes != orig.Nodes {
		t.Errorf("repository rollup = %+v, want %d trees / %d nodes", repoStats, orig.Trees, orig.Nodes)
	}
}

func TestRouterClose(t *testing.T) {
	r := NewRouterFromRepository(testRepo(t), 2, Config{})
	if _, err := r.Match(context.Background(), personal(), testOpts()); err != nil {
		t.Fatal(err)
	}

	r.Close()
	r.Close() // idempotent
	if _, err := r.Match(context.Background(), personal(), testOpts()); !errors.Is(err, ErrClosed) {
		t.Errorf("err after Close = %v, want ErrClosed", err)
	}
}
