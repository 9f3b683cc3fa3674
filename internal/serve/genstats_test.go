package serve

import (
	"context"
	"strings"
	"testing"

	"bellflower/internal/pipeline"
)

// adaptiveOpts is testOpts as a top-N request, so every generation-engine
// counter (partials, pool reuses, floor tightenings) actually moves.
func adaptiveOpts() pipeline.Options {
	opts := testOpts()
	opts.TopN = 3
	return opts
}

// The generation-engine counters follow the kernel-counter sharing
// discipline: one EngineStats per repository generation, shared by the
// pre-pass runner and every view-backed shard runner, identity-deduped in
// the router rollup — never multiplied by the shard count.
func TestRouterGenStatsSharedAndDeduped(t *testing.T) {
	r := NewRouterFromRepository(testRepo(t), 3, Config{})
	defer r.Close()

	shared := r.fullRunner.GenStats()
	for i := 0; i < r.NumShards(); i++ {
		if localShard(r, i).runner.GenStats() != shared {
			t.Fatalf("shard %d owns private generation counters", i)
		}
	}

	// Two requests with distinct options so the second is not a pure cache
	// hit; both drive the adaptive engine.
	if _, err := r.Match(context.Background(), personal(), adaptiveOpts()); err != nil {
		t.Fatal(err)
	}
	second := adaptiveOpts()
	second.TopN = 2
	if _, err := r.Match(context.Background(), personal(), second); err != nil {
		t.Fatal(err)
	}

	snap := shared.Snapshot()
	if snap.PartialMappings == 0 {
		t.Fatal("adaptive requests advanced no partial-mapping counter")
	}
	if snap.PoolReuses == 0 {
		t.Error("second request acquired no pooled search state")
	}

	st := r.Stats()
	if st.PartialMappings != snap.PartialMappings {
		t.Errorf("rollup partial_mappings = %d, want the shared engine's %d (identity dedup, not ×shards)",
			st.PartialMappings, snap.PartialMappings)
	}
	if st.ClustersSkippedByBound != snap.ClustersSkippedByBound ||
		st.FloorTightenings != snap.FloorTightenings ||
		st.GenPoolReuses != snap.PoolReuses {
		t.Errorf("rollup gen counters %+v diverge from the shared engine's %+v", st, snap)
	}
}

// A plain Service surfaces the four generation-engine counters in its
// stats snapshot and the Prometheus exporter emits their families.
func TestServiceGenStatsAndPrometheus(t *testing.T) {
	s := NewFromRepository(testRepo(t), Config{})
	defer s.Close()
	if _, err := s.Match(context.Background(), personal(), adaptiveOpts()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Match(context.Background(), personal(), testOpts()); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.PartialMappings == 0 {
		t.Error("stats carry no partial mappings after matches")
	}
	if got := s.runner.GenStats().Snapshot().PartialMappings; st.PartialMappings != got {
		t.Errorf("stats partial_mappings = %d, runner says %d", st.PartialMappings, got)
	}

	var b strings.Builder
	if err := WritePrometheus(&b, st, 1); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, fam := range []string{
		"bellflower_partial_mappings_total",
		"bellflower_clusters_skipped_by_bound_total",
		"bellflower_floor_tightenings_total",
		"bellflower_gen_pool_reuses_total",
	} {
		if !strings.Contains(out, fam) {
			t.Errorf("exporter output missing %s", fam)
		}
	}
}

// MergeStats treats the generation counters as shared-object figures:
// identical shard snapshots merge to one copy (max), not a sum.
func TestMergeStatsGenCountersMax(t *testing.T) {
	a := Stats{PartialMappings: 10, ClustersSkippedByBound: 4, FloorTightenings: 7, GenPoolReuses: 2}
	b := Stats{PartialMappings: 10, ClustersSkippedByBound: 4, FloorTightenings: 7, GenPoolReuses: 2}
	out := MergeStats(a, b)
	if out.PartialMappings != 10 || out.ClustersSkippedByBound != 4 ||
		out.FloorTightenings != 7 || out.GenPoolReuses != 2 {
		t.Errorf("shared gen counters were summed, not maxed: %+v", out)
	}
}
