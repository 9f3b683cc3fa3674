package serve

import (
	"context"
	"math/rand"
	"testing"

	"bellflower/internal/pipeline"
	"bellflower/internal/schema"
)

// randomPersonal builds a random personal schema whose names are sampled
// from the repository's own vocabulary, so candidate sets are non-trivial.
// Deterministic for a given rng state.
func randomPersonal(rng *rand.Rand, repo *schema.Repository, extraNodes int) *schema.Tree {
	nodes := repo.Nodes()
	name := func() string { return nodes[rng.Intn(len(nodes))].Name }
	b := schema.NewBuilder("personal")
	root := b.Root(name())
	parents := []*schema.Node{root}
	for i := 0; i < extraNodes; i++ {
		p := parents[rng.Intn(len(parents))]
		parents = append(parents, b.Element(p, name()))
	}
	return b.MustTree()
}

// TestShardedEquivalenceProperty is the randomized equivalence harness:
// for seeded random repositories and personal schemas, the sharded report
// — served by view-backed shards sharing ONE labelling index — must carry
// exactly the unsharded report's mappings and partial mappings, rank for
// rank (rankKeys: Δ, cluster ID, image IDs), for BOTH partition strategies
// across shard counts 1–8, with partial-results mode both off and on
// (alternating by shard count; a healthy fan-out must be identical and
// never marked Incomplete either way); a top-N report must be exactly the
// unsharded enumeration cut to N, ties at the cut included. Both tree
// clustering and the k-means medium variant are covered: the router's
// pre-pass clusters globally, so even the k-means variants are exact.
func TestShardedEquivalenceProperty(t *testing.T) {
	cases := []struct {
		seed       int64
		nodes      int
		extraNodes int
		topN       int
		variant    pipeline.Variant
	}{
		{seed: 1, nodes: 300, extraNodes: 2, topN: 4, variant: pipeline.VariantTree},
		{seed: 2, nodes: 450, extraNodes: 3, topN: 1, variant: pipeline.VariantMedium},
		{seed: 3, nodes: 600, extraNodes: 2, topN: 7, variant: pipeline.VariantTree},
		{seed: 4, nodes: 350, extraNodes: 4, topN: 3, variant: pipeline.VariantMedium},
	}
	for _, tc := range cases {
		repo := syntheticRepo(t, tc.nodes, tc.seed)
		rng := rand.New(rand.NewSource(tc.seed * 7919))
		personal := randomPersonal(rng, repo, tc.extraNodes)

		opts := pipeline.DefaultOptions()
		opts.Variant = tc.variant
		opts.MinSim = 0.4
		opts.Threshold = 0.6
		opts.IncludePartials = true

		direct, err := pipeline.NewRunner(repo).Run(personal, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", tc.seed, err)
		}
		want := rankKeys(direct)
		truncated := opts
		truncated.TopN = tc.topN
		wantTopN := rankKeys(cutReport(direct, tc.topN))
		if len(direct.Mappings) == 0 {
			t.Logf("seed %d: unsharded run found no mappings (personal %s); equivalence still checked", tc.seed, personal)
		}

		for _, strategy := range []PartitionStrategy{PartitionBalanced, PartitionClustered} {
			for shards := 1; shards <= 8; shards++ {
				// Both routing modes must agree byte-for-byte on healthy
				// fan-outs: partial results only changes what happens when
				// shards FAIL, never what a successful merge contains.
				partial := shards%2 == 0
				r := NewRouterWithPartition(repo, shards, Config{Workers: 2, PartialResults: partial}, strategy)
				// Shards are views over ONE shared index: that is the
				// memory model the equivalence is now proving exact.
				for i := 0; i < r.NumShards(); i++ {
					if localShard(r, i).runner.Index() != r.fullRunner.Index() {
						t.Fatalf("seed %d %v shards=%d: shard %d owns a private index", tc.seed, strategy, shards, i)
					}
					if localShard(r, i).runner.NameIndex() != r.fullRunner.NameIndex() {
						t.Fatalf("seed %d %v shards=%d: shard %d owns a private name index", tc.seed, strategy, shards, i)
					}
					if localShard(r, i).runner.View() == nil {
						t.Fatalf("seed %d %v shards=%d: shard %d is not view-backed", tc.seed, strategy, shards, i)
					}
				}
				rep, err := r.Match(context.Background(), personal, opts)
				if err != nil {
					r.Close()
					t.Fatalf("seed %d %v shards=%d: %v", tc.seed, strategy, shards, err)
				}
				if rep.Incomplete || len(rep.ShardErrors) != 0 {
					t.Errorf("seed %d %v shards=%d: healthy fan-out marked incomplete (partial=%v)",
						tc.seed, strategy, shards, partial)
				}
				if got := rankKeys(rep); got != want {
					t.Errorf("seed %d %v shards=%d: sharded report differs from unsharded (partial=%v)\n--- unsharded\n%s\n--- sharded\n%s",
						tc.seed, strategy, shards, partial, want, got)
				}
				// Stage-1 instrumentation must agree too: the pre-pass
				// projections cover exactly the unsharded candidate set.
				if rep.MappingElements != direct.MappingElements {
					t.Errorf("seed %d %v shards=%d: mapping elements %d, want %d",
						tc.seed, strategy, shards, rep.MappingElements, direct.MappingElements)
				}
				// The byte-identical report above must have come THROUGH the
				// keyed kernel, not around it: the default name matcher is
				// property-local, so the shared name index's counters advance
				// and the naive fallback never fires. The rollup's memory
				// gauge equals the single shared index — shards add none.
				ks := r.fullRunner.NameIndex().KernelStats()
				if ks.SimCalls == 0 {
					t.Errorf("seed %d %v shards=%d: keyed kernel performed no similarity calls", tc.seed, strategy, shards)
				}
				if ks.NaiveFallbacks != 0 {
					t.Errorf("seed %d %v shards=%d: keyed kernel fell back to the naive loop %d times",
						tc.seed, strategy, shards, ks.NaiveFallbacks)
				}
				if st := r.Stats(); st.NameIndexBytes != r.fullRunner.NameIndex().MemoryBytes() {
					t.Errorf("seed %d %v shards=%d: rollup NameIndexBytes %d, want the shared index's %d",
						tc.seed, strategy, shards, st.NameIndexBytes, r.fullRunner.NameIndex().MemoryBytes())
				}

				// Truncated report: the unsharded enumeration cut to N.
				repTopN, err := r.Match(context.Background(), personal, truncated)
				if err != nil {
					r.Close()
					t.Fatalf("seed %d %v shards=%d topN: %v", tc.seed, strategy, shards, err)
				}
				if got := rankKeys(repTopN); got != wantTopN {
					t.Errorf("seed %d %v shards=%d: top-%d report differs\n--- unsharded, cut\n%s--- sharded\n%s",
						tc.seed, strategy, shards, tc.topN, wantTopN, got)
				}
				r.Close()
			}
		}
	}
}

// TestShardedEquivalenceTopNDeltas pins the truncated-ranking guarantee on
// its own: for every shard count and both strategies the top-N report is
// exactly the unsharded enumeration cut to N, mapping for mapping.
func TestShardedEquivalenceTopNDeltas(t *testing.T) {
	repo := syntheticRepo(t, 500, 11)
	rng := rand.New(rand.NewSource(11))
	personal := randomPersonal(rng, repo, 3)

	opts := pipeline.DefaultOptions()
	opts.Variant = pipeline.VariantTree
	opts.MinSim = 0.4
	opts.Threshold = 0.55

	full, err := pipeline.NewRunner(repo).Run(personal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Mappings) < 10 {
		t.Fatalf("fixture enumerates %d mappings: every N below must truncate", len(full.Mappings))
	}
	for _, topN := range []int{1, 2, 5, 10} {
		o := opts
		o.TopN = topN
		want := rankKeys(cutReport(full, topN)) // enumerate, then truncate
		for _, strategy := range []PartitionStrategy{PartitionBalanced, PartitionClustered} {
			for _, shards := range []int{2, 5, 8} {
				r := NewRouterWithPartition(repo, shards, Config{Workers: 2}, strategy)
				rep, err := r.Match(context.Background(), personal, o)
				r.Close()
				if err != nil {
					t.Fatal(err)
				}
				if got := rankKeys(rep); got != want {
					t.Errorf("topN=%d %v shards=%d:\n%swant\n%s", topN, strategy, shards, got, want)
				}
			}
		}
	}
}

// A tie straddling the top-N cut, found by a scratch sweep: three balanced
// shards must answer this top 3 with the unsharded run's mappings from
// clusters 2 and 11, not with another cluster's mappings at the same Δ —
// the merge has to break the tie exactly as Rank does.
func TestShardedTopNTieAtCutSeed8(t *testing.T) {
	repo := syntheticRepo(t, 600, 8)
	personal := randomPersonal(rand.New(rand.NewSource(8*7919)), repo, 2)
	opts := pipeline.DefaultOptions()
	opts.Variant = pipeline.VariantTree
	opts.MinSim = 0.4
	opts.Threshold = 0.5

	full, err := pipeline.NewRunner(repo).Run(personal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Mappings) < 4 || full.Mappings[2].Score.Delta != full.Mappings[3].Score.Delta {
		t.Fatal("fixture lost its tie at the top-3 cut")
	}
	opts.TopN = 3
	r := NewRouterWithPartition(repo, 3, Config{Workers: 1}, PartitionBalanced)
	defer r.Close()
	rep, err := r.Match(context.Background(), personal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want, got := rankKeys(cutReport(full, 3)), rankKeys(rep); got != want {
		t.Errorf("sharded top 3:\n%swant\n%s", got, want)
	}
}
