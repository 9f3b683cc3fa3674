package serve

import (
	"math/rand"
	"testing"

	"bellflower/internal/schema"
)

// fuzzRepo builds a random repository from a seeded rng: up to maxTrees
// trees of 1–12 nodes with names drawn from a small pool, so vocabularies
// overlap the way the clustered partitioner cares about.
func fuzzRepo(rng *rand.Rand, maxTrees int) *schema.Repository {
	pool := []string{
		"book", "title", "author", "name", "email", "address", "price",
		"order", "item", "dose", "chart", "ward", "patient", "isbn",
	}
	repo := schema.NewRepository()
	for i := 0; i < maxTrees; i++ {
		b := schema.NewBuilder("t")
		nodes := []*schema.Node{b.Root(pool[rng.Intn(len(pool))])}
		extra := rng.Intn(12)
		for j := 0; j < extra; j++ {
			parent := nodes[rng.Intn(len(nodes))]
			nodes = append(nodes, b.Element(parent, pool[rng.Intn(len(pool))]))
		}
		repo.MustAdd(b.MustTree())
	}
	return repo
}

// FuzzPartitionRepository checks the partition invariants both strategies
// promise (checkPartitionInvariants), plus determinism and the clustered
// strategy's load cap, for arbitrary repositories and shard counts.
func FuzzPartitionRepository(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(4), false)
	f.Add(int64(2), uint8(1), uint8(8), true)
	f.Add(int64(3), uint8(12), uint8(0), true)
	f.Add(int64(4), uint8(0), uint8(3), false)
	f.Fuzz(func(t *testing.T, seed int64, numTrees uint8, n uint8, clustered bool) {
		rng := rand.New(rand.NewSource(seed))
		repo := fuzzRepo(rng, int(numTrees)%16)
		strategy := PartitionBalanced
		if clustered {
			strategy = PartitionClustered
		}
		views := partitionViews(repo, int(n), strategy)
		checkPartitionInvariants(t, repo, int(n), views)
		checkPartitionDeterministic(t, repo, int(n), strategy, views)
		if clustered {
			// A shard is eligible while under twice the ceiling average, so
			// the tree that fills it overshoots by at most its own size.
			capacity := 2*((repo.Len()+len(views)-1)/len(views)) + repo.Stats().MaxTree
			for i, v := range views {
				if v.Len() > capacity {
					t.Errorf("shard %d holds %d nodes, cap %d", i, v.Len(), capacity)
				}
			}
		}
	})
}
