package mapgen

import (
	"fmt"
	"math/rand"
	"testing"

	"bellflower/internal/cluster"
	"bellflower/internal/labeling"
	"bellflower/internal/matcher"
	"bellflower/internal/objective"
	"bellflower/internal/schema"
)

// shapedCase is randomCase for the structural bound: the personal schema
// is a random tree of 2–7 nodes (a chain, bushy, or in between) instead of
// the fixed depth-1 book(title,author,press), repository trees deepen as
// well as branch, and α and K vary — so personal children land on
// ancestors of their parent's image, on chains, and at k > 4, where a bound
// that looks ahead along the structure can go wrong.
func shapedCase(seed int64) (*labeling.Index, *objective.Evaluator, *matcher.Candidates, []*cluster.Cluster) {
	words := []string{"book", "title", "author", "name", "data", "isbn", "press", "year", "city", "shelf", "price", "note"}
	rng := rand.New(rand.NewSource(seed))
	// grow adds size−1 nodes below a root, each under the newest node with
	// probability deepen and under a random earlier one otherwise.
	grow := func(size int, deepen float64) *schema.Tree {
		b := schema.NewBuilder("t")
		nodes := []*schema.Node{b.Root(words[rng.Intn(len(words))])}
		for len(nodes) < size {
			p := nodes[len(nodes)-1]
			if rng.Float64() >= deepen {
				p = nodes[rng.Intn(len(nodes))]
			}
			nodes = append(nodes, b.Element(p, words[rng.Intn(len(words))]))
		}
		return b.MustTree()
	}
	shapes := []float64{0, 0.5, 1} // bushy, mixed, chain
	personal := grow(2+rng.Intn(6), shapes[rng.Intn(len(shapes))])
	repo := schema.NewRepository()
	for tr := 0; tr < 1+rng.Intn(3); tr++ {
		repo.MustAdd(grow(4+rng.Intn(24), shapes[rng.Intn(2)]))
	}
	ix := labeling.NewIndex(repo)
	cands := matcher.FindCandidates(personal, repo, matcher.NameMatcher{}, matcher.Config{MinSim: 0.3})
	params := objective.Params{
		Alpha: []float64{0.25, 0.5, 0.75}[rng.Intn(3)],
		K:     []float64{1, 2, 4}[rng.Intn(3)],
	}
	ev := objective.NewEvaluator(params, ix, personal)
	var clusters []*cluster.Cluster
	if rng.Intn(2) == 0 {
		clusters = cluster.TreeClusters(ix, cands).Clusters
	} else if res, err := cluster.KMeans(ix, cands, cluster.DefaultConfig()); err == nil {
		clusters = res.Clusters
	}
	return ix, ev, cands, clusters
}

// checkShapedEquivalence pins, for one shaped case, the B&B threshold
// search and the top-N search bit-identical
// to the code-sharing-free enumerator. Cases whose search space is too
// large to enumerate are skipped; it reports whether the case ran.
func checkShapedEquivalence(t *testing.T, seed int64, n int, threshold float64) bool {
	t.Helper()
	ix, ev, cands, clusters := shapedCase(seed)
	g := New(Config{Threshold: threshold}, ix, ev, cands)
	top, ctr := g.GenerateTopN(clusters, n)
	if ctr.SearchSpace > 30000 {
		return false
	}
	want, _ := refGenerate(ix, ev, cands, clusters, threshold, false)
	all, _ := g.Generate(clusters)
	mappingsIdentical(t, "shaped threshold search vs reference", all, want)
	if len(want) > n {
		want = want[:n]
	}
	mappingsIdentical(t, "shaped top-N vs truncated reference", top, want)
	return true
}

// Property: over random personal-tree shapes, deepening repositories, α, K,
// δ, N and both clusterers the look-ahead bound loses and reorders nothing.
func TestSubtreeBoundEquivalence(t *testing.T) {
	thresholds := []float64{0, 0.3, 0.5, 0.75}
	ran := 0
	for seed := int64(0); seed < 300; seed++ {
		if checkShapedEquivalence(t, seed, 1+int(seed)%12, thresholds[int(seed/12)%len(thresholds)]) {
			ran++
		}
	}
	if ran < 200 {
		t.Errorf("only %d of 300 shaped cases were small enough to enumerate", ran)
	}
}

// The look-ahead only tightens the bound: on the fixed corpus of
// TestSortedCutoffNeverAddsWork and on a shaped one the threshold search
// generates, cluster by cluster, never more partial mappings than the
// reference search under the old bound (Δpath of the union as it stands,
// tested after the push); the totals are pinned.
func TestSubtreeBoundNeverAddsWork(t *testing.T) {
	for _, corpus := range []struct {
		name        string
		gen         func(int64) (*labeling.Index, *objective.Evaluator, *matcher.Candidates, []*cluster.Cluster)
		delta       float64
		pinned, old int64 // Σ partial mappings: this search, the old bound
	}{
		{"randomCase", randomCase, 0.8, 2298, 2995},
		{"shapedCase", shapedCase, 0.9, 465, 841},
	} {
		var total, refTotal int64
		for seed := int64(0); seed < 40; seed++ {
			ix, ev, cands, clusters := corpus.gen(seed)
			g := New(Config{Threshold: corpus.delta}, ix, ev, cands)
			for _, cl := range clusters {
				_, ctr := g.GenerateInCluster(cl)
				_, ref := refGenerate(ix, ev, cands, []*cluster.Cluster{cl}, corpus.delta, true)
				if ctr.PartialMappings > ref {
					t.Errorf("%s seed %d cluster %d: %d partial mappings, old bound %d",
						corpus.name, seed, cl.ID, ctr.PartialMappings, ref)
				}
				total += ctr.PartialMappings
				refTotal += ref
			}
		}
		if total != corpus.pinned || refTotal != corpus.old {
			t.Errorf("%s at δ %v: %d partial mappings against %d under the old bound, pinned %d against %d",
				corpus.name, corpus.delta, total, refTotal, corpus.pinned, corpus.old)
		}
	}
}

// The widest personal schema the pipeline admits, as a chain: the remaining
// masks shift by up to 63 and must neither overflow into a bound that prunes
// the exact copy nor panic.
func TestSubtreeBoundWidestSchema(t *testing.T) {
	spec, tail := "", ""
	for i := 63; i >= 0; i-- {
		spec = fmt.Sprintf("n%02d", i) + spec
		if i > 0 {
			spec, tail = "("+spec, tail+")"
		}
	}
	// The repository repeats the chain's last four names on a side branch,
	// so the search has 16 complete mappings to rank.
	f := newFix(t, objective.DefaultParams(), 0.99, spec+tail, "r("+spec+tail+",n60(n61(n62(n63))))")
	clusters := f.treeClusters()
	want, _ := refGenerate(f.ix, f.ev, f.cands, clusters, 0.5, false)
	if len(want) != 16 || want[0].Score.Delta != 1 {
		t.Fatalf("fixture: %d reference mappings, best %+v", len(want), want[0].Score)
	}
	got, _ := f.gen(Config{Threshold: 0.5}).Generate(clusters)
	mappingsIdentical(t, "64-node chain threshold search", got, want)
	top, _ := f.gen(Config{Threshold: 0.5}).GenerateTopN(clusters, 3)
	mappingsIdentical(t, "64-node chain top-3", top, want[:3])
}
