package serve

import (
	"context"
	"math/rand"
	"sort"
	"strings"
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

// canonicalReport serializes a ranked report into a shard-independent
// canonical form: one key per mapping (Δ, repository tree name, image
// paths) in rank order, with runs of equal-Δ mappings sorted within the
// run. Rank order within a tie is the one place sharded and unsharded runs
// may legitimately differ (ID-based tie-breaking is shard-local), so the
// canonical form is byte-identical exactly when the reports agree
// everywhere else.
func canonicalReport(rep *pipeline.Report) string {
	keys := reportKeys(rep)
	i := 0
	for i < len(keys) {
		j := i + 1
		for j < len(keys) && rep.Mappings[j].Score.Delta == rep.Mappings[i].Score.Delta {
			j++
		}
		sort.Strings(keys[i:j])
		i = j
	}
	return strings.Join(keys, "\n")
}

// TestShardedEquivalenceProperty is the randomized equivalence harness:
// for seeded random repositories and personal schemas, the sharded report
// — served by view-backed shards sharing ONE labelling index — must be
// byte-identical (canonical form) to the unsharded one for BOTH partition
// strategies across shard counts 1–8, with partial-results mode both off
// and on (alternating by shard count; a healthy fan-out must be identical
// and never marked Incomplete either way), and truncated (top-N) reports
// must carry the byte-identical Δ sequence of the unsharded enumeration cut
// to N, with every mapping drawn from the unsharded result. (Within an
// equal-Δ group straddling the top-N cut the tie member chosen is
// shard-order-dependent by documented design — the same latitude ID-based
// tie-breaking already has — so exact byte identity is asserted on the
// untruncated report.) Both tree
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

		direct, err := pipeline.NewRunner(repo).Run(personal, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", tc.seed, err)
		}
		want := canonicalReport(direct)
		fullKeys := make(map[string]int)
		for _, k := range reportKeys(direct) {
			fullKeys[k]++
		}
		// The top-N reference is the unsharded enumeration cut to N, never
		// another top-N search.
		truncated := opts
		truncated.TopN = tc.topN
		wantTopN := direct.Deltas()
		if len(wantTopN) > tc.topN {
			wantTopN = wantTopN[:tc.topN]
		}
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
					if r.Shard(i).Index() != r.fullRunner.Index() {
						t.Fatalf("seed %d %v shards=%d: shard %d owns a private index", tc.seed, strategy, shards, i)
					}
					if r.Shard(i).Runner().NameIndex() != r.fullRunner.NameIndex() {
						t.Fatalf("seed %d %v shards=%d: shard %d owns a private name index", tc.seed, strategy, shards, i)
					}
					if r.Shard(i).Runner().View() == nil {
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
				if got := canonicalReport(rep); got != want {
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

				// Truncated report: identical Δ sequence, every mapping a
				// member of the unsharded full result.
				repTopN, err := r.Match(context.Background(), personal, truncated)
				if err != nil {
					r.Close()
					t.Fatalf("seed %d %v shards=%d topN: %v", tc.seed, strategy, shards, err)
				}
				dd, sd := wantTopN, repTopN.Deltas()
				if len(dd) != len(sd) {
					t.Fatalf("seed %d %v shards=%d: topN found %d mappings, want %d",
						tc.seed, strategy, shards, len(sd), len(dd))
				}
				for i := range dd {
					if dd[i] != sd[i] {
						t.Errorf("seed %d %v shards=%d: topN rank %d Δ=%v, want %v",
							tc.seed, strategy, shards, i, sd[i], dd[i])
					}
				}
				seen := make(map[string]int)
				for _, k := range reportKeys(repTopN) {
					seen[k]++
					if seen[k] > fullKeys[k] {
						t.Errorf("seed %d %v shards=%d: topN mapping %s not in (or over-counted vs) the unsharded result",
							tc.seed, strategy, shards, k)
					}
				}

				// The engine's worker count must be invisible in the results:
				// same Δ sequence as the truncated enumeration, every mapping
				// from the unsharded full result.
				adaptive := truncated
				adaptive.Parallelism = 1 + shards%4
				repAdaptive, err := r.Match(context.Background(), personal, adaptive)
				if err != nil {
					r.Close()
					t.Fatalf("seed %d %v shards=%d adaptive: %v", tc.seed, strategy, shards, err)
				}
				ad := repAdaptive.Deltas()
				if len(ad) != len(dd) {
					t.Fatalf("seed %d %v shards=%d: adaptive topN found %d mappings, want %d",
						tc.seed, strategy, shards, len(ad), len(dd))
				}
				for i := range dd {
					if dd[i] != ad[i] {
						t.Errorf("seed %d %v shards=%d: adaptive topN rank %d Δ=%v, want %v",
							tc.seed, strategy, shards, i, ad[i], dd[i])
					}
				}
				seenAd := make(map[string]int)
				for _, k := range reportKeys(repAdaptive) {
					seenAd[k]++
					if seenAd[k] > fullKeys[k] {
						t.Errorf("seed %d %v shards=%d: adaptive topN mapping %s not in the unsharded result",
							tc.seed, strategy, shards, k)
					}
				}
				r.Close()
			}
		}
	}
}

// TestShardedEquivalenceTopNDeltas pins the truncated-ranking guarantee on
// its own: for every shard count and both strategies the top-N Δ sequence
// is byte-identical to the unsharded enumeration cut to N (mapping identity
// inside an equal-Δ group straddling the cut is tie-arbitrary by documented
// design).
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
		dd := full.Deltas()[:topN] // enumerate, then truncate
		for _, strategy := range []PartitionStrategy{PartitionBalanced, PartitionClustered} {
			for _, shards := range []int{2, 5, 8} {
				// Inline and over four workers: the same Δ sequence through
				// the sharded path.
				for _, parallelism := range []int{0, 4} {
					ro := o
					ro.Parallelism = parallelism
					r := NewRouterWithPartition(repo, shards, Config{Workers: 2}, strategy)
					rep, err := r.Match(context.Background(), personal, ro)
					if err != nil {
						r.Close()
						t.Fatal(err)
					}
					sd := rep.Deltas()
					if len(dd) != len(sd) {
						t.Fatalf("topN=%d %v shards=%d parallelism=%d: %d mappings, want %d",
							topN, strategy, shards, parallelism, len(sd), len(dd))
					}
					for i := range dd {
						if dd[i] != sd[i] {
							t.Errorf("topN=%d %v shards=%d parallelism=%d rank %d: Δ=%v, want %v",
								topN, strategy, shards, parallelism, i, sd[i], dd[i])
						}
					}
					r.Close()
				}
			}
		}
	}
}
