package pipeline

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"bellflower/internal/cluster"
	"bellflower/internal/labeling"
	"bellflower/internal/mapgen"
	"bellflower/internal/matcher"
	"bellflower/internal/objective"
	"bellflower/internal/repogen"
	"bellflower/internal/schema"
	"bellflower/internal/trace"
)

func smallRepo() *schema.Repository {
	cfg := repogen.DefaultConfig()
	cfg.TargetNodes = 2500
	cfg.Seed = 42
	return repogen.MustGenerate(cfg)
}

// personBooks is the paper's canonical personal schema: three nodes named
// name, address, email in the shape of Fig. 1's s.
func personBooks() *schema.Tree {
	return schema.MustParseSpec("address(name,email)")
}

func TestVariantString(t *testing.T) {
	want := map[Variant]string{
		VariantTree: "tree", VariantSmall: "small",
		VariantMedium: "medium", VariantLarge: "large",
	}
	for v, s := range want {
		if v.String() != s {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), s)
		}
	}
}

func TestVariantClusterConfig(t *testing.T) {
	if _, ok := VariantTree.ClusterConfig(); ok {
		t.Errorf("tree variant should not have a cluster config")
	}
	wantJoin := map[Variant]int{VariantSmall: 2, VariantMedium: 3, VariantLarge: 4}
	for v, j := range wantJoin {
		cfg, ok := v.ClusterConfig()
		if !ok || cfg.JoinThreshold != j {
			t.Errorf("%v cluster config = %+v ok=%v, want join %d", v, cfg, ok, j)
		}
	}
}

func TestRunTreeBaseline(t *testing.T) {
	r := NewRunner(smallRepo())
	opts := DefaultOptions()
	opts.MinSim = 0.3
	opts.Variant = VariantTree
	rep, err := r.Run(personBooks(), opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.MappingElements == 0 {
		t.Fatalf("no mapping elements")
	}
	if rep.Clusters == 0 || rep.UsefulClusters == 0 {
		t.Fatalf("clusters=%d useful=%d", rep.Clusters, rep.UsefulClusters)
	}
	if rep.Iterations != 0 {
		t.Errorf("tree baseline should not iterate, got %d", rep.Iterations)
	}
	if len(rep.Mappings) == 0 {
		t.Fatalf("no mappings found")
	}
	for i := 1; i < len(rep.Mappings); i++ {
		if rep.Mappings[i].Score.Delta > rep.Mappings[i-1].Score.Delta {
			t.Errorf("ranking violated at %d", i)
		}
	}
	for _, m := range rep.Mappings {
		if m.Score.Delta < opts.Threshold {
			t.Errorf("mapping below threshold: %v", m.Score.Delta)
		}
	}
}

func TestRunClusteredReducesSearchSpace(t *testing.T) {
	r := NewRunner(smallRepo())
	base := DefaultOptions()
	base.MinSim = 0.3
	base.Variant = VariantTree
	treeRep, err := r.Run(personBooks(), base)
	if err != nil {
		t.Fatal(err)
	}
	med := DefaultOptions()
	med.MinSim = 0.3
	med.Variant = VariantMedium
	medRep, err := r.Run(personBooks(), med)
	if err != nil {
		t.Fatal(err)
	}
	if medRep.Counters.SearchSpace >= treeRep.Counters.SearchSpace {
		t.Errorf("clustering did not reduce search space: %v >= %v",
			medRep.Counters.SearchSpace, treeRep.Counters.SearchSpace)
	}
	if medRep.Counters.PartialMappings >= treeRep.Counters.PartialMappings {
		t.Errorf("clustering did not reduce partial mappings: %d >= %d",
			medRep.Counters.PartialMappings, treeRep.Counters.PartialMappings)
	}
	// Clustered mappings are a subset in count.
	if len(medRep.Mappings) > len(treeRep.Mappings) {
		t.Errorf("clustered found more mappings (%d) than exhaustive (%d)",
			len(medRep.Mappings), len(treeRep.Mappings))
	}
	if rep := medRep; rep.Iterations == 0 {
		t.Errorf("clustered run should iterate")
	}
}

func TestClusteredMappingsAreSubsetOfBaseline(t *testing.T) {
	r := NewRunner(smallRepo())
	key := func(m mapgen.Mapping) string {
		out := ""
		for _, img := range m.Images {
			out += "," + img.String()
		}
		return out
	}
	base := DefaultOptions()
	base.MinSim = 0.3
	base.Variant = VariantTree
	treeRep, err := r.Run(personBooks(), base)
	if err != nil {
		t.Fatal(err)
	}
	baseline := map[string]bool{}
	for _, m := range treeRep.Mappings {
		baseline[key(m)] = true
	}
	for _, v := range []Variant{VariantSmall, VariantMedium, VariantLarge} {
		opts := DefaultOptions()
		opts.MinSim = 0.3
		opts.Variant = v
		rep, err := r.Run(personBooks(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range rep.Mappings {
			if !baseline[key(m)] {
				t.Errorf("%v found mapping not in baseline: %s (Δ=%v)", v, key(m), m.Score.Delta)
			}
		}
	}
}

func TestRunTopN(t *testing.T) {
	r := NewRunner(smallRepo())
	opts := DefaultOptions()
	opts.MinSim = 0.3
	opts.Variant = VariantTree
	opts.TopN = 3
	rep, err := r.Run(personBooks(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mappings) > 3 {
		t.Errorf("TopN=3 returned %d mappings", len(rep.Mappings))
	}
}

func TestRunValidation(t *testing.T) {
	r := NewRunner(smallRepo())
	bad := DefaultOptions()
	bad.Threshold = 1.5
	if _, err := r.Run(personBooks(), bad); err == nil {
		t.Errorf("bad threshold accepted")
	}
	bad2 := DefaultOptions()
	bad2.Objective.Alpha = 7
	if _, err := r.Run(personBooks(), bad2); err == nil {
		t.Errorf("bad alpha accepted")
	}
}

// TestOversizedPersonalSchemaIsATypedError: every Runner entry point (and
// ComputeClusters, which the router's pre-pass calls directly) refuses a
// personal schema wider than the 64-bit candidate masks with
// ErrSchemaTooLarge instead of panicking, and accepts exactly 64 nodes.
func TestOversizedPersonalSchemaIsATypedError(t *testing.T) {
	wide := func(n int) *schema.Tree {
		b := schema.NewBuilder("wide")
		// One matching root over leaves that match nothing: the search
		// space stays trivial while the schema fills the mask.
		root := b.Root("address")
		for i := 1; i < n; i++ {
			b.Element(root, fmt.Sprintf("zzqx%dkw", i))
		}
		return b.MustTree()
	}
	r := NewRunner(smallRepo())
	ctx := context.Background()
	opts := DefaultOptions()
	opts.TopN = 3

	at := wide(cluster.MaxPersonalNodes)
	if _, err := r.RunContext(ctx, at, opts); err != nil {
		t.Fatalf("64-node personal schema refused: %v", err)
	}

	over := wide(cluster.MaxPersonalNodes + 1)
	cands := r.MatchCandidates(over, matcher.NameMatcher{}, matcher.Config{MinSim: opts.MinSim})
	_, errRun := r.RunContext(ctx, over, opts)
	_, errClusters := r.RunWithClusters(ctx, over, cands, []*cluster.Cluster{}, 0, opts)
	_, _, errCompute := ComputeClusters(r.Index(), cands, opts)
	treeOpts := opts
	treeOpts.Variant = VariantTree
	_, _, errTree := ComputeClusters(r.Index(), cands, treeOpts)
	for name, err := range map[string]error{
		"RunContext": errRun, "RunWithClusters": errClusters,
		"ComputeClusters": errCompute, "ComputeClusters(tree)": errTree,
	} {
		if !errors.Is(err, ErrSchemaTooLarge) {
			t.Errorf("%s over 65 nodes: err = %v, want ErrSchemaTooLarge", name, err)
		}
	}
}

func TestRunWithCustomMatcherAndConfig(t *testing.T) {
	r := NewRunner(smallRepo())
	opts := DefaultOptions()
	opts.MinSim = 0.3
	opts.Matcher = matcher.NewCombined(
		matcher.Weighted{Matcher: matcher.NameMatcher{TokenAware: true}, Weight: 3},
		matcher.Weighted{Matcher: matcher.DefaultSynonyms(), Weight: 1},
	)
	cc := cluster.DefaultConfig()
	cc.JoinThreshold = 5
	opts.ClusterConfig = &cc
	rep, err := r.Run(personBooks(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MappingElements == 0 {
		t.Errorf("custom matcher found nothing")
	}
}

func TestRunIncludePartials(t *testing.T) {
	// Personal schema with a node that matches nowhere: complete mappings
	// are impossible but partials should surface.
	repo := schema.NewRepository()
	repo.MustAdd(schema.MustParseSpec("contact(name,address)"))
	r := NewRunner(repo)
	opts := DefaultOptions()
	opts.MinSim = 0.3
	opts.Variant = VariantTree
	opts.Threshold = 0.2
	opts.IncludePartials = true
	rep, err := r.Run(schema.MustParseSpec("person(name,address,zzzqqy)"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mappings) != 0 {
		t.Errorf("impossible complete mappings found: %d", len(rep.Mappings))
	}
	if len(rep.Partials) == 0 {
		t.Errorf("no partial mappings surfaced")
	}
	for i := 1; i < len(rep.Partials); i++ {
		if rep.Partials[i].Score.Delta > rep.Partials[i-1].Score.Delta {
			t.Errorf("partials not ranked at %d", i)
		}
	}
}

func TestClusterQualityOrdering(t *testing.T) {
	repo := schema.NewRepository()
	// Tree 0: perfect match; tree 1: noisy match.
	repo.MustAdd(schema.MustParseSpec("person(name,address,email)"))
	repo.MustAdd(schema.MustParseSpec("persn(nam,adress,emall)"))
	r := NewRunner(repo)
	opts := DefaultOptions()
	opts.MinSim = 0.3
	opts.Variant = VariantTree
	opts.Threshold = 0.5
	opts.MinSim = 0.4
	opts.OrderClusters = true
	rep, err := r.Run(personBooks(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FirstGoodAfter != 1 {
		t.Errorf("with quality ordering the first cluster should yield a mapping, got FirstGoodAfter=%d", rep.FirstGoodAfter)
	}
	if len(rep.Mappings) == 0 || rep.Mappings[0].Images[0].Tree().ID != 0 {
		t.Errorf("best mapping should come from the perfect tree")
	}
}

func TestClusterQualityValue(t *testing.T) {
	repo := schema.NewRepository()
	repo.MustAdd(schema.MustParseSpec("person(name,address,email)"))
	r := NewRunner(repo)
	personal := personBooks()
	cands := matcher.FindCandidates(personal, repo, matcher.NameMatcher{}, matcher.Config{MinSim: 0.5})
	cl := cluster.TreeClusters(r.Index(), cands).Clusters[0]
	var member labeling.Bitset
	member.Grow(repo.Len())
	q := clusterQuality(&member, cl, cands)
	if q < 0.9 {
		t.Errorf("perfect-match cluster quality = %v, want ~1", q)
	}
}

func TestReportDerived(t *testing.T) {
	r := NewRunner(smallRepo())
	opts := DefaultOptions()
	opts.MinSim = 0.3
	rep, err := r.Run(personBooks(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.TotalTime(); got != rep.MatchTime+rep.ClusterTime+rep.GenTime {
		t.Errorf("TotalTime = %v", got)
	}
	ds := rep.Deltas()
	if len(ds) != len(rep.Mappings) {
		t.Errorf("Deltas length = %d", len(ds))
	}
	for i, d := range ds {
		if d != rep.Mappings[i].Score.Delta {
			t.Errorf("Deltas[%d] mismatch", i)
		}
	}
	var _ = objective.DefaultParams()
}

// TestRunWithClustersMatchesRunContext: handing the first two stages' own
// output to RunWithClusters must reproduce the full run exactly (the
// serving pre-pass depends on this equivalence).
func TestRunWithClustersMatchesRunContext(t *testing.T) {
	repo := smallRepo()
	r := NewRunner(repo)
	personal := personBooks()
	for _, v := range []Variant{VariantTree, VariantMedium} {
		opts := DefaultOptions()
		opts.Variant = v
		opts.Threshold = 0.6
		opts.MinSim = 0.3

		want, err := r.Run(personal, opts)
		if err != nil {
			t.Fatal(err)
		}
		cands := matcher.FindCandidates(personal, repo, matcher.NameMatcher{},
			matcher.Config{MinSim: opts.MinSim})
		clusters, iterations, err := ComputeClusters(r.Index(), cands, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.RunWithClusters(context.Background(), personal, cands, clusters, iterations, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.MappingElements != want.MappingElements {
			t.Errorf("%v: mapping elements %d, want %d", v, got.MappingElements, want.MappingElements)
		}
		if got.Clusters != want.Clusters || got.UsefulClusters != want.UsefulClusters || got.Iterations != want.Iterations {
			t.Errorf("%v: clusters %d/%d after %d iterations, want %d/%d after %d", v,
				got.Clusters, got.UsefulClusters, got.Iterations, want.Clusters, want.UsefulClusters, want.Iterations)
		}
		if len(got.Mappings) != len(want.Mappings) {
			t.Fatalf("%v: %d mappings, want %d", v, len(got.Mappings), len(want.Mappings))
		}
		for i := range want.Mappings {
			if got.Mappings[i].Score != want.Mappings[i].Score {
				t.Errorf("%v: mapping %d score %+v, want %+v", v,
					i, got.Mappings[i].Score, want.Mappings[i].Score)
			}
			for j, img := range want.Mappings[i].Images {
				if got.Mappings[i].Images[j] != img {
					t.Errorf("%v: mapping %d image %d differs", v, i, j)
				}
			}
		}
		if got.MatchTime != 0 || got.ClusterTime != 0 {
			t.Errorf("%v: MatchTime = %v, ClusterTime = %v, want 0 (both stages happened upstream)",
				v, got.MatchTime, got.ClusterTime)
		}
	}
}

// TestRunWithClustersValidation: malformed inputs are rejected before any
// pipeline work.
func TestRunWithClustersValidation(t *testing.T) {
	repo := smallRepo()
	r := NewRunner(repo)
	personal := personBooks()
	opts := DefaultOptions()
	cands := matcher.FindCandidates(personal, repo, matcher.NameMatcher{},
		matcher.Config{MinSim: opts.MinSim})
	clusters, iterations, err := ComputeClusters(r.Index(), cands, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if _, err := r.RunWithClusters(ctx, personal, nil, clusters, iterations, opts); err == nil {
		t.Error("nil candidate set accepted")
	}
	other := personBooks()
	if _, err := r.RunWithClusters(ctx, other, cands, clusters, iterations, opts); err == nil {
		t.Error("candidates for a different personal schema accepted")
	}
	bad := opts
	bad.Threshold = 1.5
	if _, err := r.RunWithClusters(ctx, personal, cands, clusters, iterations, bad); err == nil {
		t.Error("out-of-range threshold accepted")
	}
	// Candidates or clusters computed against a different repository:
	// foreign node IDs must be refused, not silently indexed into this
	// runner's arrays.
	foreign := NewRunner(smallRepo())
	if _, err := foreign.RunWithClusters(ctx, personal, cands, nil, 0, opts); err == nil {
		t.Error("foreign candidate set accepted")
	}
	ownCands := matcher.FindCandidates(personal, foreign.Repository(), matcher.NameMatcher{},
		matcher.Config{MinSim: opts.MinSim})
	if _, err := foreign.RunWithClusters(ctx, personal, ownCands, clusters, iterations, opts); err == nil {
		t.Error("foreign clusters accepted")
	}

	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := r.RunWithClusters(cctx, personal, cands, clusters, iterations, opts); err == nil {
		t.Error("cancelled context not honoured")
	}
}

// TestMatchSpanAttrs: the pipeline.match span says how many mapping elements
// the stage produced and how the kernel's row memo served it — all misses on
// a fresh runner, all hits on the repeat.
func TestMatchSpanAttrs(t *testing.T) {
	r := NewRunner(smallRepo())
	personal := personBooks()
	for pass, want := range []map[string]string{
		{"memo_hits": "0", "memo_misses": "3"},
		{"memo_hits": "3", "memo_misses": "0"},
	} {
		ctx, tr, root := trace.New(context.Background(), "test")
		rep, err := r.RunContext(ctx, personal, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		root.End()
		want["candidates"] = fmt.Sprint(rep.MappingElements)
		var got map[string]string
		for _, sp := range tr.Spans() {
			if sp.Name == "pipeline.match" {
				got = make(map[string]string)
				for _, a := range sp.Attrs {
					got[a.Key] = a.Value
				}
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("pass %d: pipeline.match attrs %v, want %v", pass, got, want)
		}
	}
}

// The cluster and generate spans carry the request features that explain a
// slow request from /v1/traces alone, equal to the report's own figures and
// the clustering run's loaded-element and medoid counters.
func TestClusterGenerateSpanAttrs(t *testing.T) {
	ctx, tr, root := trace.New(context.Background(), "test")
	r := NewRunner(smallRepo())
	opts := DefaultOptions()
	rep, err := r.RunContext(ctx, personBooks(), opts)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if rep.Counters.PartialMappings == 0 {
		t.Fatal("fixture generated no partial mapping")
	}
	cands := r.vocab.FindCandidates(personBooks(), matcher.NameMatcher{}, matcher.Config{MinSim: opts.MinSim})
	res, err := ClusterCandidates(r.ix, cands, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.MedoidRuns == 0 || res.MedoidsKept == 0 || res.Loaded == 0 {
		t.Fatalf("fixture loaded %d elements, ran %d medoids and kept %d, want every counter exercised", res.Loaded, res.MedoidRuns, res.MedoidsKept)
	}
	want := map[string]string{
		"pipeline.cluster": fmt.Sprint(map[string]string{
			"elements":        fmt.Sprint(rep.MappingElements),
			"elements_loaded": fmt.Sprint(res.Loaded),
			"clusters":        fmt.Sprint(rep.Clusters),
			"iterations":      fmt.Sprint(rep.Iterations),
			"medoid_runs":     fmt.Sprint(res.MedoidRuns),
			"medoids_kept":    fmt.Sprint(res.MedoidsKept),
		}),
		"pipeline.generate": fmt.Sprint(map[string]string{
			"useful_clusters": fmt.Sprint(rep.UsefulClusters),
			"partials":        fmt.Sprint(rep.Counters.PartialMappings),
			"complete":        fmt.Sprint(rep.Counters.CompleteMappings),
		}),
	}
	for _, sp := range tr.Spans() {
		if w, ok := want[sp.Name]; ok {
			got := make(map[string]string)
			for _, a := range sp.Attrs {
				got[a.Key] = a.Value
			}
			if fmt.Sprint(got) != w {
				t.Errorf("%s attrs %v, want %v", sp.Name, got, w)
			}
			delete(want, sp.Name)
		}
	}
	for name := range want {
		t.Errorf("no %s span recorded", name)
	}
}
