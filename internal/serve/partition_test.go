package serve

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"bellflower/internal/labeling"
	"bellflower/internal/schema"
)

// partitionViews partitions repo into up to n shard views over a fresh
// index.
func partitionViews(repo *schema.Repository, n int, strategy PartitionStrategy) []*labeling.View {
	return PartitionRepositoryViews(labeling.NewIndex(repo), n, strategy)
}

// checkPartitionInvariants asserts the guarantees both strategies share:
// n clamped to [1, trees], no empty shard, every repository tree — the
// repository's own tree object, whole — in exactly one shard, node totals
// preserved, and node membership agreeing with tree membership (trees are
// never split: the clustering distance between nodes of different trees is
// infinite, so intact trees are exactly what "clusters never span shards"
// requires).
func checkPartitionInvariants(t *testing.T, repo *schema.Repository, n int, views []*labeling.View) {
	t.Helper()
	want := min(max(n, 1), max(repo.NumTrees(), 1))
	if len(views) != want {
		t.Fatalf("%d shards, want %d (n=%d over %d trees)", len(views), want, n, repo.NumTrees())
	}
	trees, nodes := 0, 0
	shardOf := make(map[*schema.Tree]int)
	for i, v := range views {
		if repo.NumTrees() > 0 && v.NumTrees() == 0 {
			t.Errorf("shard %d is empty", i)
		}
		trees += v.NumTrees()
		nodes += v.Len()
		members := 0
		for _, tr := range v.Trees() {
			if prev, dup := shardOf[tr]; dup {
				t.Errorf("tree %q assigned to shards %d and %d", tr.Name, prev, i)
			}
			shardOf[tr] = i
			members += tr.Len()
		}
		if members != v.Len() {
			t.Errorf("shard %d holds %d nodes but its trees have %d: a tree was split", i, v.Len(), members)
		}
	}
	if trees != repo.NumTrees() || nodes != repo.Len() {
		t.Errorf("partition covers %d trees / %d nodes, want %d / %d",
			trees, nodes, repo.NumTrees(), repo.Len())
	}
	for _, tr := range repo.Trees() {
		i, ok := shardOf[tr]
		if !ok {
			t.Errorf("tree %q lost by the partition", tr.Name)
			continue
		}
		for _, node := range tr.Nodes() {
			for j, v := range views {
				if got := v.Contains(node); got != (i == j) {
					t.Errorf("node %v of shard %d's tree %q: shard %d Contains = %v", node, i, tr.Name, j, got)
				}
			}
		}
	}
}

// checkPartitionDeterministic asserts that partitioning the same repository
// again assigns the same trees, in the same order, to the same shards.
func checkPartitionDeterministic(t *testing.T, repo *schema.Repository, n int, strategy PartitionStrategy, views []*labeling.View) {
	t.Helper()
	again := partitionViews(repo, n, strategy)
	for i := range views {
		if !slices.Equal(views[i].Trees(), again[i].Trees()) {
			t.Errorf("n=%d shard %d not deterministic", n, i)
		}
	}
}

func TestPartitionRepository(t *testing.T) {
	repo := syntheticRepo(t, 600, 3)
	views := partitionViews(repo, 4, PartitionBalanced)
	checkPartitionInvariants(t, repo, 4, views)
	checkPartitionDeterministic(t, repo, 4, PartitionBalanced, views)
	// Balance: no shard should carry more than half the forest when four
	// shards split a many-tree repository.
	for i, v := range views {
		if v.Len() > repo.Len()/2 {
			t.Errorf("shard %d holds %d of %d nodes; partition is unbalanced", i, v.Len(), repo.Len())
		}
	}

	// Clamping: more shards than trees, and degenerate n.
	small := testRepo(t) // 3 trees
	checkPartitionInvariants(t, small, 10, partitionViews(small, 10, PartitionBalanced))
	checkPartitionInvariants(t, small, 0, partitionViews(small, 0, PartitionBalanced))
}

func TestPartitionClusteredInvariants(t *testing.T) {
	repo := syntheticRepo(t, 600, 3)
	for _, n := range []int{1, 2, 4, 7} {
		views := partitionViews(repo, n, PartitionClustered)
		checkPartitionInvariants(t, repo, n, views)
		checkPartitionDeterministic(t, repo, n, PartitionClustered, views)

		// Load cap: no shard may exceed twice the ceiling average.
		capacity := 2 * ((repo.Len() + n - 1) / n)
		for i, v := range views {
			// The last tree assigned may push a shard past the cap by at
			// most one tree's size; the eligibility check uses the load
			// before assignment.
			if v.Len() > capacity+repo.Stats().MaxTree {
				t.Errorf("n=%d shard %d holds %d nodes, cap %d", n, i, v.Len(), capacity)
			}
		}
	}

	// Clamping mirrors the balanced partitioner.
	small := testRepo(t)
	checkPartitionInvariants(t, small, 10, partitionViews(small, 10, PartitionClustered))
	checkPartitionInvariants(t, small, 0, partitionViews(small, 0, PartitionClustered))
	empty := schema.NewRepository()
	checkPartitionInvariants(t, empty, 4, partitionViews(empty, 4, PartitionClustered))
}

// TestPartitionClusteredColocatesVocabulary: trees sharing a vocabulary
// must land together while unrelated vocabularies separate — the whole
// point of the clustered strategy.
func TestPartitionClusteredColocatesVocabulary(t *testing.T) {
	repo := schema.NewRepository()
	// Two vocabulary families of four trees each, same sizes so the
	// balanced strategy would interleave them.
	for i := 0; i < 4; i++ {
		repo.MustAdd(schema.MustParseSpec("library(book(title,author),shelf)"))
		repo.MustAdd(schema.MustParseSpec("clinic(patient(dose,chart),ward)"))
	}
	views := partitionViews(repo, 2, PartitionClustered)
	if len(views) != 2 {
		t.Fatalf("got %d shards", len(views))
	}
	for i, v := range views {
		vocab := make(map[string]bool)
		for _, tr := range v.Trees() {
			for _, name := range tr.Names() {
				vocab[strings.ToLower(name)] = true
			}
		}
		if vocab["book"] && vocab["patient"] {
			t.Errorf("shard %d mixes both vocabulary families: %v", i, sortedKeys(vocab))
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestPartitionStrategyString(t *testing.T) {
	for _, tc := range []struct {
		s    PartitionStrategy
		want string
	}{
		{PartitionBalanced, "balanced"},
		{PartitionClustered, "clustered"},
	} {
		if got := tc.s.String(); got != tc.want {
			t.Errorf("%d.String() = %q, want %q", int(tc.s), got, tc.want)
		}
		parsed, err := ParsePartitionStrategy(tc.want)
		if err != nil || parsed != tc.s {
			t.Errorf("ParsePartitionStrategy(%q) = %v, %v", tc.want, parsed, err)
		}
	}
	if _, err := ParsePartitionStrategy("psychic"); err == nil {
		t.Error("unknown strategy accepted")
	}
	if got := PartitionStrategy(42).String(); !strings.Contains(got, "42") {
		t.Errorf("unknown strategy renders as %q", got)
	}
}
