package mapgen

import (
	"fmt"
	"math"
	"slices"
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

// refPartials is the tests' reference for GeneratePartialInCluster: a
// straight-line enumeration of the Sec. 2.3 definition in partial.go's doc
// comment, sharing no code with partialSearch. The covered nodes are the
// personal nodes with a candidate among the cluster's members; each covered
// node hangs off its nearest covered proper ancestor, if any. Every 1-to-1
// assignment of the covered nodes is scored — Δsim over all n personal
// nodes with the missing ones as 0, Δpath by Eq. 2 over the contracted
// edges with |Et| the union of their image paths (Index.PathLengthSum) —
// and kept when Δ ≥ threshold. Nil when fewer than two nodes are covered.
// The list comes back ranked.
func refPartials(ix *labeling.Index, ev *objective.Evaluator, cands *matcher.Candidates,
	cl *cluster.Cluster, threshold float64) []PartialMapping {
	personal := cands.Personal
	n := personal.Len()
	member := map[int]bool{}
	for _, e := range cl.Elements {
		member[e.Node.ID] = true
	}
	sets := make([][]matcher.Candidate, n)
	var covered []int
	var mask uint64
	for i := 0; i < n; i++ {
		for _, c := range cands.Sets[i].Elems {
			if member[c.Node.ID] {
				sets[i] = append(sets[i], c)
			}
		}
		if len(sets[i]) > 0 {
			covered = append(covered, i)
			mask |= 1 << uint(i)
		}
	}
	if len(covered) < 2 {
		return nil
	}
	var edges [][2]int // (parent, child) preorder ranks of the contracted tree
	for _, i := range covered {
		for p := personal.NodeAt(i).Parent(); p != nil; p = p.Parent() {
			if mask&(1<<uint(p.Pre)) != 0 {
				edges = append(edges, [2]int{p.Pre, i})
				break
			}
		}
	}

	var out []PartialMapping
	images, sims := make([]*schema.Node, n), make([]float64, n)
	used := map[int]bool{}
	var rec func(j int)
	rec = func(j int) {
		if j == len(covered) {
			simSum := 0.0
			for _, i := range covered {
				simSum += sims[i]
			}
			pairs := make([][2]*schema.Node, len(edges))
			for e, ed := range edges {
				pairs[e] = [2]*schema.Node{images[ed[0]], images[ed[1]]}
			}
			et := ix.PathLengthSum(pairs)
			dpath := 1.0
			if es := len(edges); es > 0 {
				dpath = math.Max(0, math.Min(1, 1-float64(et-es)/(float64(es)*ev.Params().K)))
			}
			dsim := simSum / float64(n)
			if delta := ev.Combine(dsim, dpath); delta >= threshold {
				out = append(out, PartialMapping{
					Images:      append([]*schema.Node(nil), images...),
					Sims:        append([]float64(nil), sims...),
					CoveredMask: mask,
					Covered:     len(covered),
					Score:       objective.Score{Delta: delta, Sim: dsim, Path: dpath, Et: et},
					ClusterID:   cl.ID,
				})
			}
			return
		}
		i := covered[j]
		for _, c := range sets[i] {
			if used[c.Node.ID] {
				continue
			}
			used[c.Node.ID] = true
			images[i], sims[i] = c.Node, c.Sim
			rec(j + 1)
			used[c.Node.ID] = false
			images[i], sims[i] = nil, 0
		}
	}
	rec(0)
	RankPartials(out)
	return out
}

// partialsIdentical asserts that two ranked partial-mapping lists agree
// exactly: images, sims, score, coverage and cluster, rank by rank.
func partialsIdentical(t *testing.T, label string, got, want []PartialMapping) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d partial mappings, want %d", label, len(got), len(want))
	}
	for r := range got {
		g, w := &got[r], &want[r]
		if g.Score != w.Score || g.CoveredMask != w.CoveredMask || g.Covered != w.Covered || g.ClusterID != w.ClusterID {
			t.Fatalf("%s: rank %d: %+v mask %b cluster %d, want %+v mask %b cluster %d",
				label, r, g.Score, g.CoveredMask, g.ClusterID, w.Score, w.CoveredMask, w.ClusterID)
		}
		for k := range g.Images {
			if g.Images[k] != w.Images[k] || g.Sims[k] != w.Sims[k] {
				t.Fatalf("%s: rank %d image %d: %v sim %v, want %v sim %v",
					label, r, k, g.Images[k], g.Sims[k], w.Images[k], w.Sims[k])
			}
		}
	}
}

// usefulIn reports whether every personal node has a candidate among the
// cluster's members.
func usefulIn(cands *matcher.Candidates, cl *cluster.Cluster) bool {
	member := map[int]bool{}
	for _, e := range cl.Elements {
		member[e.Node.ID] = true
	}
	for _, s := range cands.Sets {
		if !slices.ContainsFunc(s.Elems, func(c matcher.Candidate) bool { return member[c.Node.ID] }) {
			return false
		}
	}
	return true
}

// Over the seeded corpus's non-useful clusters, the partial mappings the
// search returns, once ranked, are the reference enumeration's exactly. The
// nested personal schema lets an uncovered node sit between two covered
// ones, so a contracted edge skips a level.
func TestPartialsMatchReference(t *testing.T) {
	checked, found := 0, 0
	for _, spec := range []string{"book(title,author,press)", "book(title(name),data(author,isbn),press)"} {
		for _, delta := range []float64{0, 0.3, 0.5} {
			for seed := int64(0); seed < 60; seed++ {
				ix, ev, cands, clusters := randomCaseFor(seed, spec)
				g := New(Config{Threshold: delta}, ix, ev, cands)
				for _, cl := range clusters {
					if usefulIn(cands, cl) {
						continue
					}
					want := refPartials(ix, ev, cands, cl, delta)
					got, _ := g.GeneratePartialInCluster(cl)
					RankPartials(got)
					partialsIdentical(t, fmt.Sprintf("%s δ=%v seed %d cluster %d", spec, delta, seed, cl.ID), got, want)
					checked++
					found += len(want)
				}
			}
		}
	}
	if checked == 0 || found == 0 {
		t.Fatalf("%d non-useful clusters with %d partial mappings: the corpus no longer exercises partials", checked, found)
	}
	t.Logf("%d non-useful clusters, %d partial mappings", checked, found)
}

// Two covered subtrees under an uncovered root: the contracted tree is a
// forest of two trees (contact and address), four contracted edges in all,
// and the search agrees with the reference on it.
func TestPartialsContractedForest(t *testing.T) {
	f := newFix(t, objective.DefaultParams(), 0.5,
		"person(contact(name,phone),address(street,city))",
		"entry(contact(name,phone),address(street,city))")
	clusters := f.treeClusters()
	if len(clusters) != 1 {
		t.Fatalf("want 1 cluster, got %d", len(clusters))
	}
	want := refPartials(f.ix, f.ev, f.cands, clusters[0], 0.3)
	got, _ := f.gen(Config{Threshold: 0.3}).GeneratePartialInCluster(clusters[0])
	RankPartials(got)
	partialsIdentical(t, "contracted forest", got, want)
	if len(got) == 0 {
		t.Fatal("no partial mappings")
	}
	best := got[0]
	if best.CoveredMask != 0b1111110 {
		t.Fatalf("covered mask %b, want every node but the root", best.CoveredMask)
	}
	if best.Score.Et != 4 || best.Score.Path != 1 {
		t.Errorf("best partial: |Et| %d Δpath %v, want 4 and 1 (each contracted edge maps to one edge)", best.Score.Et, best.Score.Path)
	}
	for i, img := range best.Images[1:] {
		if want := f.personal.NodeAt(i + 1).Name; img.Name != want {
			t.Errorf("image %d is %q, want %q", i+1, img.Name, want)
		}
	}
}
