package cluster

import (
	"math/rand"
	"sync"
	"testing"

	"bellflower/internal/labeling"
	"bellflower/internal/matcher"
	"bellflower/internal/repogen"
	"bellflower/internal/schema"
)

// benchKMeansInput is the clustering stage's input at paper scale: the
// 9,759-node synthetic repository and the candidate sets of a fixed list of
// 64 personal schemas, connected 3–7-node subtrees with distinct names cut
// from that repository, matched by the default name matcher at the serving
// default's MinSim.
var benchKMeansInput = sync.OnceValues(func() (*labeling.Index, []*matcher.Candidates) {
	repo := repogen.MustGenerate(repogen.DefaultConfig())
	ix := labeling.NewIndex(repo)
	vocab := matcher.NewNameIndex(repo).Vocabulary(repo.Nodes())
	nodes := repo.Nodes()
	rng := rand.New(rand.NewSource(42))
	var cands []*matcher.Candidates
	for len(cands) < 64 {
		personal := cutSubtree(rng, nodes[rng.Intn(len(nodes))], 3+len(cands)%5)
		if personal == nil {
			continue
		}
		cands = append(cands, vocab.FindCandidates(personal, matcher.NameMatcher{}, matcher.Config{MinSim: 0.45}))
	}
	return ix, cands
})

// cutSubtree grows a connected k-node subtree downwards from root, picking
// among the children of already chosen nodes whose names are still free;
// nil when the neighbourhood runs out first.
func cutSubtree(rng *rand.Rand, root *schema.Node, k int) *schema.Tree {
	b := schema.NewBuilder("personal")
	built := map[*schema.Node]*schema.Node{root: b.Root(root.Name)}
	names := map[string]bool{root.Name: true}
	frontier := append([]*schema.Node(nil), root.Children()...)
	for b.Size() < k {
		live := frontier[:0]
		for _, c := range frontier {
			if !names[c.Name] {
				live = append(live, c)
			}
		}
		if frontier = live; len(frontier) == 0 {
			return nil
		}
		i := rng.Intn(len(frontier))
		pick := frontier[i]
		frontier = append(frontier[:i], frontier[i+1:]...)
		built[pick] = b.Element(built[pick.Parent()], pick.Name)
		names[pick.Name] = true
		frontier = append(frontier, pick.Children()...)
	}
	t, err := b.Tree()
	if err != nil {
		return nil
	}
	return t
}

// BenchmarkKMeans measures one k-means run of the serving default ("medium
// clusters") per op, cycling through the fixed request list. medoid_runs/op
// counts medoid-kernel runs, medoids_kept/op the clusters whose medoid the
// unchanged-members rule kept and loaded/op the elements of the trees
// holding an MEmin candidate, the only ones a run stores; all three are
// exact per request, so their means depend only on b.N.
func BenchmarkKMeans(b *testing.B) {
	ix, cands := benchKMeansInput()
	cfg := DefaultConfig()
	var runs, kept, loaded int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := KMeans(ix, cands[i%len(cands)], cfg)
		if err != nil {
			b.Fatal(err)
		}
		runs += res.MedoidRuns
		kept += res.MedoidsKept
		loaded += res.Loaded
		res.Release()
	}
	b.ReportMetric(float64(runs)/float64(b.N), "medoid_runs/op")
	b.ReportMetric(float64(kept)/float64(b.N), "medoids_kept/op")
	b.ReportMetric(float64(loaded)/float64(b.N), "loaded/op")
}
