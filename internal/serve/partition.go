package serve

import (
	"fmt"
	"sort"
	"strings"

	"bellflower/internal/labeling"
	"bellflower/internal/schema"
)

// PartitionStrategy selects how PartitionRepositoryViews and the Router
// constructors distribute repository trees across shards.
type PartitionStrategy int

const (
	// PartitionBalanced distributes trees greedily by node count: largest
	// tree first, each into the currently lightest shard. Shard loads end
	// up near-equal, but trees with overlapping vocabulary scatter, so
	// every shard's candidate projection tends to contain a slice of every
	// personal-schema query.
	PartitionBalanced PartitionStrategy = iota

	// PartitionClustered co-locates trees whose label vocabularies overlap:
	// each tree goes to the shard whose accumulated vocabulary it shares
	// the most names with, subject to a load cap of twice the average shard
	// size. Per-shard candidate projections shrink — a query's candidates
	// concentrate in the shards that speak its vocabulary — so clustering
	// and structure-matcher rescoring do less work per shard.
	//
	// At small n the cap does not bind: at n = 2 twice the average is the
	// whole repository. On the paper-scale repository (9,759 nodes) n = 2
	// puts 9,757 nodes on shard 0 and one 2-node tree on shard 1; n = 3
	// splits 6,517 / 3,240 / 2 and n = 4 4,925 / 4,829 / 3 / 2. So a
	// two-way distributed router does almost all of its work on one shard.
	PartitionClustered
)

// DefaultPartitionStrategy is the strategy Router constructors use when the
// caller does not pick one.
const DefaultPartitionStrategy = PartitionClustered

// String returns the flag-friendly name of the strategy.
func (s PartitionStrategy) String() string {
	switch s {
	case PartitionBalanced:
		return "balanced"
	case PartitionClustered:
		return "clustered"
	default:
		return fmt.Sprintf("PartitionStrategy(%d)", int(s))
	}
}

// ParsePartitionStrategy is the inverse of String, for flag and API wiring.
func ParsePartitionStrategy(s string) (PartitionStrategy, error) {
	switch s {
	case "balanced":
		return PartitionBalanced, nil
	case "clustered":
		return PartitionClustered, nil
	default:
		return 0, fmt.Errorf("serve: unknown partition strategy %q (want balanced|clustered)", s)
	}
}

// PartitionRepositoryViews splits the index's repository into up to n
// disjoint shard VIEWS: each shard is a labeling.View over the one shared
// index — a set of member trees plus a global↔local ID translation —
// instead of a cloned sub-repository with an index of its own, so the
// resident index memory stays one full-repository copy regardless of n.
// Each tree lands in exactly one shard, no shard is empty (an empty
// repository yields one empty shard), the split is deterministic for a
// given repository, and n is clamped to [1, number of trees]. The tree-ID
// descriptors inside the views are the shard wire protocol's ID space
// (internal/shardrpc).
func PartitionRepositoryViews(ix *labeling.Index, n int, strategy PartitionStrategy) []*labeling.View {
	assigned := assignTrees(ix.Repository().Trees(), n, strategy)
	views := make([]*labeling.View, len(assigned))
	for i, trees := range assigned {
		views[i] = labeling.NewView(ix, trees)
	}
	return views
}

// assignTrees distributes the original trees over up to n shards according
// to the strategy. Every tree is assigned to exactly one shard and, for a
// non-empty tree list, no shard stays empty. n is clamped to
// [1, len(trees)] (1 when there are no trees).
func assignTrees(trees []*schema.Tree, n int, strategy PartitionStrategy) [][]*schema.Tree {
	if n > len(trees) {
		n = len(trees)
	}
	if n < 1 {
		n = 1
	}
	order := make([]*schema.Tree, len(trees))
	copy(order, trees)
	sort.SliceStable(order, func(i, j int) bool { return order[i].Len() > order[j].Len() })
	if strategy == PartitionClustered {
		return assignClustered(order, n)
	}
	return assignBalanced(order, n)
}

// assignBalanced is the greedy node-count balancer: each tree (largest
// first) goes to the lightest shard, ties to the lowest index.
func assignBalanced(order []*schema.Tree, n int) [][]*schema.Tree {
	assigned := make([][]*schema.Tree, n)
	load := make([]int, n)
	for _, t := range order {
		lightest := 0
		for i := 1; i < n; i++ {
			if load[i] < load[lightest] {
				lightest = i
			}
		}
		assigned[lightest] = append(assigned[lightest], t)
		load[lightest] += t.Len()
	}
	return assigned
}

// assignClustered is the vocabulary-aware greedy: each tree (largest first)
// goes to the shard whose accumulated vocabulary shares the most distinct
// folded names with the tree's own, among shards still under the load cap
// (twice the average shard size — the loads sum to the total, so at least
// one shard is always under it). Ties go to the lighter shard, then the
// lower index; an empty shard scores overlap 0 and load 0, so trees with
// no affinity anywhere seed fresh shards first. When the trees left to
// place are exactly as many as the still-empty shards, each must seed one,
// keeping the no-empty-shard guarantee.
func assignClustered(order []*schema.Tree, n int) [][]*schema.Tree {
	total := 0
	for _, t := range order {
		total += t.Len()
	}
	capacity := 2 * ((total + n - 1) / n)

	assigned := make([][]*schema.Tree, n)
	load := make([]int, n)
	shardVocab := make([]map[string]bool, n)
	for i := range shardVocab {
		shardVocab[i] = make(map[string]bool)
	}
	empty := n
	for idx, t := range order {
		vocab := treeVocabulary(t)
		mustSeed := len(order)-idx <= empty
		best, bestOverlap := -1, -1
		for i := 0; i < n; i++ {
			isEmpty := len(assigned[i]) == 0
			if mustSeed && !isEmpty {
				continue
			}
			if !isEmpty && load[i] >= capacity {
				continue
			}
			overlap := 0
			for _, name := range vocab {
				if shardVocab[i][name] {
					overlap++
				}
			}
			if overlap > bestOverlap ||
				(overlap == bestOverlap && load[i] < load[best]) {
				best, bestOverlap = i, overlap
			}
		}
		if len(assigned[best]) == 0 {
			empty--
		}
		assigned[best] = append(assigned[best], t)
		load[best] += t.Len()
		for _, name := range vocab {
			shardVocab[best][name] = true
		}
	}
	return assigned
}

// treeVocabulary returns the sorted distinct case-folded node names of a
// tree. Sorted slices keep the greedy deterministic (overlap counting never
// iterates a map).
func treeVocabulary(t *schema.Tree) []string {
	set := make(map[string]bool, t.Len())
	for _, n := range t.Nodes() {
		set[strings.ToLower(n.Name)] = true
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
