package mapgen

import (
	"testing"

	"bellflower/internal/cluster"
	"bellflower/internal/labeling"
	"bellflower/internal/matcher"
	"bellflower/internal/objective"
	"bellflower/internal/repogen"
	"bellflower/internal/schema"
)

// refGenerate is the tests' independent reference generator: a plain
// recursive search sharing nothing with the engine — map-based membership,
// |Et| recounted from the mapped paths at every step (Index.PathLengthSum),
// complete mappings scored through Evaluator.Score. With bound unset it
// enumerates every 1-to-1 combination (the reference for results); with
// bound set it prunes exactly as the search did before the
// sorted cut-off and the subtree look-ahead — after the push, one candidate
// at a time, Δpath of the union as it stands — and its partial-mapping
// count is the reference for work. The list comes back ranked.
func refGenerate(ix *labeling.Index, ev *objective.Evaluator, cands *matcher.Candidates,
	clusters []*cluster.Cluster, threshold float64, bound bool) (ms []Mapping, partials int64) {
	n := cands.Personal.Len()
	for _, cl := range clusters {
		member := map[int]bool{}
		for _, e := range cl.Elements {
			member[e.Node.ID] = true
		}
		sets := make([][]matcher.Candidate, n)
		suffixBest := make([]float64, n+1)
		useful := true
		for i := n - 1; i >= 0; i-- {
			for _, c := range cands.Sets[i].Elems {
				if member[c.Node.ID] {
					sets[i] = append(sets[i], c)
				}
			}
			if len(sets[i]) == 0 {
				useful = false
				break
			}
			suffixBest[i] = suffixBest[i+1] + sets[i][0].Sim
		}
		if !useful {
			continue
		}
		images, sims := make([]*schema.Node, n), make([]float64, n)
		used := map[int]bool{}
		var paths [][2]*schema.Node // (parent image, image) of the nodes assigned so far
		var rec func(i int, simSum float64)
		rec = func(i int, simSum float64) {
			if i == n {
				if sc := ev.Score(images, sims); sc.Delta >= threshold {
					ms = append(ms, Mapping{
						Images:    append([]*schema.Node(nil), images...),
						Sims:      append([]float64(nil), sims...),
						Score:     sc,
						ClusterID: cl.ID,
					})
				}
				return
			}
			parent := cands.Personal.NodeAt(i).Parent()
			for _, c := range sets[i] {
				if used[c.Node.ID] {
					continue
				}
				partials++
				if parent != nil {
					paths = append(paths, [2]*schema.Node{images[parent.Pre], c.Node})
				}
				optimistic := ev.Combine((simSum+c.Sim+suffixBest[i+1])/float64(n), ev.DeltaPath(ix.PathLengthSum(paths)))
				if !bound || optimistic >= threshold-1e-12 { // the engine's ulp slack, see belowFloor
					images[i], sims[i] = c.Node, c.Sim
					used[c.Node.ID] = true
					rec(i+1, simSum+c.Sim)
					used[c.Node.ID] = false
				}
				if parent != nil {
					paths = paths[:len(paths)-1]
				}
			}
		}
		rec(0, 0)
	}
	Rank(ms)
	return ms, partials
}

// preCutoffTopNPartials is Σ PartialMappings of GenerateTopN(clusters, 5)
// at δ 0.5 over randomCase seeds 0–39, measured at the commit before the
// sorted cut-off and the search-space tie-break went in.
const preCutoffTopNPartials = 1390

// The sorted cut-off only ever leaves out candidates the per-candidate
// bound would have pruned one by one: on a fixed corpus both searches
// return the reference's mappings, the threshold search with never more
// partial mappings than the pre-cut-off search generated — over all
// clusters and cluster by cluster — and the top-N search with no more than
// that, and in total no more than it generated before the change.
func TestSortedCutoffNeverAddsWork(t *testing.T) {
	var topNTotal, saved int64
	for _, delta := range []float64{0.5, 0.8} {
		for seed := int64(0); seed < 40; seed++ {
			ix, ev, cands, clusters := randomCase(seed)
			g := New(Config{Threshold: delta}, ix, ev, cands)
			want, refPartials := refGenerate(ix, ev, cands, clusters, delta, true)
			got, ctr := g.GenerateTopNStop(clusters, 0, nil)
			mappingsIdentical(t, "threshold search vs pre-cut-off reference", got, want)
			if ctr.PartialMappings > refPartials {
				t.Errorf("δ=%v seed %d: threshold search generated %d partial mappings, pre-cut-off search %d",
					delta, seed, ctr.PartialMappings, refPartials)
			}
			saved += refPartials - ctr.PartialMappings
			for _, cl := range clusters {
				_, oneCtr := g.GenerateTopNStop([]*cluster.Cluster{cl}, 0, nil)
				_, refOne := refGenerate(ix, ev, cands, []*cluster.Cluster{cl}, delta, true)
				if oneCtr.PartialMappings > refOne {
					t.Errorf("δ=%v seed %d cluster %d: %d partial mappings, pre-cut-off search %d",
						delta, seed, cl.ID, oneCtr.PartialMappings, refOne)
				}
			}
			top, topCtr := g.GenerateTopNStop(clusters, 5, nil)
			if len(want) > 5 {
				want = want[:5]
			}
			mappingsIdentical(t, "top-5 vs truncated reference", top, want)
			if topCtr.PartialMappings > refPartials {
				t.Errorf("δ=%v seed %d: top-5 search generated %d partial mappings, pre-cut-off threshold search %d",
					delta, seed, topCtr.PartialMappings, refPartials)
			}
			if delta == 0.5 {
				topNTotal += topCtr.PartialMappings
			}
		}
	}
	if saved == 0 {
		t.Error("the cut-off saved nothing on the whole corpus: the fixture no longer exercises it")
	}
	if topNTotal > preCutoffTopNPartials {
		t.Errorf("top-5 searches at δ 0.5 generated %d partial mappings over the corpus, %d before the change",
			topNTotal, preCutoffTopNPartials)
	}
}

// The paper reports that Branch & Bound generates "30 times less partial
// mappings" than enumeration on the non-clustered (tree) baseline. On the
// paper's setup — the 9,759-node synthetic repository, address(name,email),
// MinSim 0.25, δ 0.75, α 0.5, K 4 — the search returns the enumeration's
// mappings with at most its partial mappings; the ratio is logged.
func TestBnBPartialsOnTreeBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale repository")
	}
	repo := repogen.MustGenerate(repogen.DefaultConfig())
	personal := schema.MustParseSpec("address(name,email)")
	ix := labeling.NewIndex(repo)
	cands := matcher.FindCandidates(personal, repo, matcher.NameMatcher{}, matcher.Config{MinSim: 0.25})
	ev := objective.NewEvaluator(objective.Params{Alpha: 0.5, K: 4}, ix, personal)
	clusters := cluster.TreeClusters(ix, cands).Clusters

	got, ctr := New(Config{Threshold: 0.75}, ix, ev, cands).GenerateTopNStop(clusters, 0, nil)
	want, enumerated := refGenerate(ix, ev, cands, clusters, 0.75, false)
	mappingsIdentical(t, "B&B vs enumeration on the tree baseline", got, want)
	if ctr.PartialMappings > enumerated {
		t.Fatalf("B&B generated %d partial mappings, enumeration %d", ctr.PartialMappings, enumerated)
	}
	t.Logf("tree baseline: %d mappings; partial mappings: B&B %d, enumeration %d (%.1f× fewer)",
		len(got), ctr.PartialMappings, enumerated, float64(enumerated)/float64(max(ctr.PartialMappings, 1)))
}
