package experiments

import (
	"fmt"
	"strings"
	"testing"

	"bellflower/internal/pipeline"
)

// testEnv builds a reduced-scale environment so the full experiment suite
// runs quickly in tests; the benchmarks use the paper-scale setup.
func testEnv(t testing.TB) *Env {
	t.Helper()
	s := DefaultSetup()
	s.RepoConfig.TargetNodes = 2500
	s.RepoConfig.Seed = 7
	e, err := NewEnv(s)
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	return e
}

func TestRunTable1Shape(t *testing.T) {
	e := testEnv(t)
	res, err := RunTable1(e)
	if err != nil {
		t.Fatalf("RunTable1: %v", err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	byVariant := map[pipeline.Variant]Table1Row{}
	for _, r := range res.Rows {
		byVariant[r.Variant] = r
	}
	small := byVariant[pipeline.VariantSmall]
	medium := byVariant[pipeline.VariantMedium]
	large := byVariant[pipeline.VariantLarge]
	tree := byVariant[pipeline.VariantTree]

	// Paper shape: search space ordering small <= medium <= large < tree.
	if !(small.SearchSpace <= medium.SearchSpace &&
		medium.SearchSpace <= large.SearchSpace &&
		large.SearchSpace < tree.SearchSpace) {
		t.Errorf("search space ordering violated: %v %v %v %v",
			small.SearchSpace, medium.SearchSpace, large.SearchSpace, tree.SearchSpace)
	}
	// Partial mappings follow the same ordering.
	if !(small.PartialMappings <= medium.PartialMappings &&
		medium.PartialMappings <= large.PartialMappings &&
		large.PartialMappings < tree.PartialMappings) {
		t.Errorf("partial mapping ordering violated: %d %d %d %d",
			small.PartialMappings, medium.PartialMappings,
			large.PartialMappings, tree.PartialMappings)
	}
	// Found mappings: clustering loses mappings, tree finds the most.
	if !(small.Mappings <= medium.Mappings && medium.Mappings <= large.Mappings &&
		large.Mappings <= tree.Mappings) {
		t.Errorf("mapping count ordering violated: %d %d %d %d",
			small.Mappings, medium.Mappings, large.Mappings, tree.Mappings)
	}
	// Average cluster size: small variants have smaller clusters.
	if !(small.AvgElems <= large.AvgElems && large.AvgElems <= tree.AvgElems) {
		t.Errorf("avg cluster size ordering violated: %.1f %.1f %.1f",
			small.AvgElems, large.AvgElems, tree.AvgElems)
	}
	// Tree baseline is by definition 100%.
	if tree.SpacePct < 99.99 || tree.SpacePct > 100.01 {
		t.Errorf("tree SpacePct = %v", tree.SpacePct)
	}
	if res.MappingElements == 0 {
		t.Errorf("mapping elements not reported")
	}
	out := res.Render()
	for _, want := range []string{"small", "medium", "large", "tree", "search-space"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}

func TestRunFig4Shape(t *testing.T) {
	e := testEnv(t)
	res, err := RunFig4(e)
	if err != nil {
		t.Fatalf("RunFig4: %v", err)
	}
	if len(res.Strategies) != 3 {
		t.Fatalf("strategies = %d", len(res.Strategies))
	}
	none, join, joinRemove := res.Strategies[0], res.Strategies[1], res.Strategies[2]
	// Paper shape: join reduces the cluster count, join&remove reduces it
	// further.
	if !(join.Clusters < none.Clusters) {
		t.Errorf("join (%d) should form fewer clusters than none (%d)", join.Clusters, none.Clusters)
	}
	if !(joinRemove.Clusters <= join.Clusters) {
		t.Errorf("join&remove (%d) should not exceed join (%d)", joinRemove.Clusters, join.Clusters)
	}
	// Tiny clusters: join&remove eliminates the singleton bucket.
	if joinRemove.Hist.Count(1) != 0 {
		t.Errorf("join&remove left %d singleton clusters", joinRemove.Hist.Count(1))
	}
	// no-reclustering has the most tiny clusters.
	if none.Hist.Count(1) < joinRemove.Hist.Count(1) {
		t.Errorf("tiny cluster ordering violated")
	}
	out := res.Render()
	if !strings.Contains(out, "no reclustering") || !strings.Contains(out, "join & remove") {
		t.Errorf("Render output:\n%s", out)
	}
}

func TestRunFig5Shape(t *testing.T) {
	e := testEnv(t)
	res, err := RunFig5(e)
	if err != nil {
		t.Fatalf("RunFig5: %v", err)
	}
	if len(res.Curves) != 4 || len(res.Labels) != 4 {
		t.Fatalf("curves = %d labels = %d", len(res.Curves), len(res.Labels))
	}
	byLabel := map[string][]float64{}
	for i, l := range res.Labels {
		var ps []float64
		for _, p := range res.Curves[i] {
			ps = append(ps, p.Preserved)
		}
		byLabel[l] = ps
	}
	// The tree baseline preserves everything at every threshold.
	for _, p := range byLabel["tree"] {
		if p != 1 {
			t.Errorf("tree preservation = %v, want 1", p)
		}
	}
	// All preservation values lie in [0,1].
	for l, ps := range byLabel {
		for _, p := range ps {
			if p < 0 || p > 1 {
				t.Errorf("%s preservation %v outside [0,1]", l, p)
			}
		}
	}
	// Paper shape: clustering preserves a larger share of the highly
	// ranked mappings than of all mappings — the curve at the highest
	// threshold with baseline support must not be below its start.
	for _, l := range []string{"small", "medium", "large"} {
		ps := byLabel[l]
		if ps[0] > ps[len(ps)-1]+1e-9 {
			t.Errorf("%s preservation decreases toward high delta: start %.3f end %.3f", l, ps[0], ps[len(ps)-1])
		}
	}
	// Larger clusters preserve at least as much as smaller ones at δ0.
	if byLabel["small"][0] > byLabel["large"][0]+1e-9 {
		t.Errorf("small (%.3f) preserves more than large (%.3f) at base threshold",
			byLabel["small"][0], byLabel["large"][0])
	}
	if !strings.Contains(res.Render(), "delta") {
		t.Errorf("Render output missing header")
	}
}

func TestRunFig6Shape(t *testing.T) {
	e := testEnv(t)
	res, err := RunFig6(e)
	if err != nil {
		t.Fatalf("RunFig6: %v", err)
	}
	if len(res.Curves) != 3 {
		t.Fatalf("curves = %d", len(res.Curves))
	}
	// Paper shape: the clustering distance measure is path-based, so the
	// path-heavy objective (α=0.25) preserves the most at the base
	// threshold and the name-heavy objective (α=0.75) the least.
	p25 := res.Curves[0][0].Preserved
	p75 := res.Curves[2][0].Preserved
	if p25 < p75-1e-9 {
		t.Errorf("alpha=0.25 (%.3f) should preserve at least alpha=0.75 (%.3f)", p25, p75)
	}
	for _, c := range res.Curves {
		for _, p := range c {
			if p.Preserved < 0 || p.Preserved > 1 {
				t.Errorf("preservation %v outside [0,1]", p.Preserved)
			}
		}
	}
	if !strings.Contains(res.Render(), "a=0.25") {
		t.Errorf("Render output missing alpha label")
	}
}

func TestRunEndToEnd(t *testing.T) {
	e := testEnv(t)
	res, err := RunEndToEnd(e)
	if err != nil {
		t.Fatalf("RunEndToEnd: %v", err)
	}
	if res.TreeTotal <= 0 || res.MediumTotal <= 0 {
		t.Errorf("times not measured: %+v", res)
	}
	if want := float64(res.TreeTotal) / float64(res.MediumTotal); res.Speedup != want {
		t.Errorf("Speedup = %v, want tree/medium = %v", res.Speedup, want)
	}
	// A median needs an odd sample count, and more than one sample.
	if endToEndRuns < 3 || endToEndRuns%2 == 0 {
		t.Errorf("endToEndRuns = %d, want an odd count of at least 3", endToEndRuns)
	}
	if out := res.Render(); !strings.Contains(out, "speedup") || !strings.Contains(out, fmt.Sprintf("median of %d runs", endToEndRuns)) {
		t.Errorf("Render output: %s", out)
	}
}

func TestDefaultSetupMatchesPaperScale(t *testing.T) {
	s := DefaultSetup()
	if s.RepoConfig.TargetNodes != 9759 {
		t.Errorf("TargetNodes = %d, want the paper's 9759", s.RepoConfig.TargetNodes)
	}
	if s.Threshold != 0.75 {
		t.Errorf("Threshold = %v, want 0.75", s.Threshold)
	}
	if s.Alpha != 0.5 {
		t.Errorf("Alpha = %v", s.Alpha)
	}
}

func TestNewEnvErrors(t *testing.T) {
	s := DefaultSetup()
	s.PersonalSpec = "((("
	if _, err := NewEnv(s); err == nil {
		t.Errorf("bad personal spec accepted")
	}
	s2 := DefaultSetup()
	s2.RepoConfig.TargetNodes = -1
	if _, err := NewEnv(s2); err == nil {
		t.Errorf("bad repo config accepted")
	}
}
