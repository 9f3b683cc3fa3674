package mapgen

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bellflower/internal/cluster"
	"bellflower/internal/labeling"
	"bellflower/internal/matcher"
	"bellflower/internal/objective"
	"bellflower/internal/schema"
	"bellflower/internal/strsim"
)

// mappingsIdentical asserts full bit-identity — scores, order, cluster,
// images, sims — the guarantee the search makes against the reference.
func mappingsIdentical(t *testing.T, label string, got, want []Mapping) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d mappings, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.Score != w.Score || g.ClusterID != w.ClusterID {
			t.Fatalf("%s: rank %d: %+v / cluster %d, want %+v / cluster %d",
				label, i, g.Score, g.ClusterID, w.Score, w.ClusterID)
		}
		for k := range g.Images {
			if g.Images[k].ID != w.Images[k].ID || g.Sims[k] != w.Sims[k] {
				t.Fatalf("%s: rank %d image %d: node %d sim %v, want node %d sim %v",
					label, i, k, g.Images[k].ID, g.Sims[k], w.Images[k].ID, w.Sims[k])
			}
		}
	}
}

// randomCase builds a random repository, candidate set and clustering from
// a seed; shared by the property test and the fuzz harness.
func randomCase(seed int64) (*labeling.Index, *objective.Evaluator, *matcher.Candidates, []*cluster.Cluster) {
	words := []string{"book", "title", "author", "name", "data", "isbn", "press"}
	rng := rand.New(rand.NewSource(seed))
	repo := schema.NewRepository()
	for tr := 0; tr < 1+rng.Intn(4); tr++ {
		b := schema.NewBuilder("t")
		nodes := []*schema.Node{b.Root(words[rng.Intn(len(words))])}
		for i := 1; i < 3+rng.Intn(14); i++ {
			p := nodes[rng.Intn(len(nodes))]
			nodes = append(nodes, b.Element(p, words[rng.Intn(len(words))]))
		}
		repo.MustAdd(b.MustTree())
	}
	personal := schema.MustParseSpec("book(title,author,press)")
	ix := labeling.NewIndex(repo)
	matchers := []matcher.Matcher{
		matcher.NameMatcher{},
		matcher.NameMatcher{Metric: strsim.MetricJaroWinkler},
		matcher.NameMatcher{TokenAware: true, Metric: strsim.MetricBigramCosine},
	}
	cands := matcher.FindCandidates(personal, repo, matchers[rng.Intn(len(matchers))],
		matcher.Config{MinSim: 0.3})
	ev := objective.NewEvaluator(objective.DefaultParams(), ix, personal)
	var clusters []*cluster.Cluster
	if rng.Intn(2) == 0 {
		clusters = cluster.TreeClusters(ix, cands).Clusters
	} else if res, err := cluster.KMeans(ix, cands, cluster.DefaultConfig()); err == nil {
		clusters = res.Clusters
	}
	return ix, ev, cands, clusters
}

// checkTopNEquivalence runs the identity chain — the threshold search ≡
// the test-local enumeration that shares no code with it, and top-N ≡
// enumerate-then-truncate — for one seeded case, and pins that a repeated
// search (warm pooled state) repeats every counter.
func checkTopNEquivalence(t *testing.T, seed int64, n int, threshold float64) {
	t.Helper()
	ix, ev, cands, clusters := randomCase(seed)

	exh, _ := refGenerate(ix, ev, cands, clusters, threshold, false)
	g := New(Config{Threshold: threshold}, ix, ev, cands)
	own, _ := g.GenerateTopNStop(clusters, 0, nil)
	mappingsIdentical(t, "threshold search vs enumeration", own, exh)
	if len(exh) > n {
		exh = exh[:n]
	}
	top, ctr := g.GenerateTopNStop(clusters, n, nil)
	mappingsIdentical(t, "top-N vs exhaustive", top, exh)
	again, againCtr := g.GenerateTopNStop(clusters, n, nil)
	mappingsIdentical(t, "repeated top-N", again, top)
	if againCtr != ctr {
		t.Fatalf("repeated top-N counters %+v, first run %+v", againCtr, ctr)
	}
}

// Property: for random repositories, matchers, clusterings, N and δ, the
// adaptive search returns results bit-identical to exhaustive generation
// truncated to N.
func TestGenerateTopNEquivalence(t *testing.T) {
	thresholds := []float64{0, 0.3, 0.5, 0.75, 0.9}
	f := func(seed int64, nRaw, thRaw uint8) bool {
		n := 1 + int(nRaw)%9
		checkTopNEquivalence(t, seed, n, thresholds[int(thRaw)%len(thresholds)])
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// FuzzGenerateTopNParallel is the fuzz-harness form of the equivalence
// properties (the fixed-shape cases of randomCase and the random shapes of
// shapedCase), so the corpus can grow counterexamples across runs. The
// name predates the single-threaded search; the corpus directory and CI
// refer to it.
func FuzzGenerateTopNParallel(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(0))
	f.Add(int64(7), uint8(3), uint8(2))
	f.Add(int64(42), uint8(8), uint8(4))
	f.Add(int64(-99), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, thRaw uint8) {
		thresholds := []float64{0, 0.3, 0.5, 0.75, 0.9}
		checkTopNEquivalence(t, seed, 1+int(nRaw)%9, thresholds[int(thRaw)%len(thresholds)])
		checkShapedEquivalence(t, seed, 1+int(nRaw)%12, thresholds[int(thRaw)%len(thresholds)])
	})
}

// TestGenerateTopNCancellation fires the stop hook after 0..4 clusters:
// the search consults it no more once it fired, and whatever survives is
// still a ranked list.
func TestGenerateTopNCancellation(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		ix, ev, cands, clusters := randomCase(seed)
		g := New(Config{Threshold: 0.3}, ix, ev, cands)
		calls := 0
		cutoff := int(seed % 5) // stop after 0..4 stop-hook consultations
		ms, _ := g.GenerateTopNStop(clusters, 5, func() bool {
			calls++
			return calls > cutoff
		})
		if calls > cutoff+1 {
			t.Fatalf("seed %d: search went on after the stop hook fired (%d calls)", seed, calls)
		}
		for i := 1; i < len(ms); i++ {
			if rankLess(&ms[i], &ms[i-1]) {
				t.Fatalf("seed %d: cancelled result unranked at %d", seed, i)
			}
		}
	}
}

// allocFix returns a generator whose searches do real work (partial
// mappings are generated) but keep no mapping — the configuration the
// zero-allocation pins measure, so result copies don't hide a leak in the
// search machinery itself. Names match exactly, so no cluster is cut off by
// its similarity bound; the stretched paths then sink every mapping below
// δ.
func allocFix(t *testing.T) (*Generator, []*cluster.Cluster) {
	t.Helper()
	f := newFix(t, objective.DefaultParams(), 0.3,
		"book(title,author)",
		"lib(book(x(title),x(title)),y(author),y(author))",
		"store(dept(book(z(title))),author)")
	g := f.gen(Config{Threshold: 0.999})
	clusters := f.treeClusters()
	_, ctr := g.GenerateTopNStop(clusters, 0, nil)
	if ctr.PartialMappings == 0 || ctr.Found != 0 {
		t.Fatalf("alloc fixture must search without keeping: %+v", ctr)
	}
	return g, clusters
}

// The warm search paths must not allocate: state comes from the pool, the
// restricted sets, bitsets, edge union and heap reuse their backing
// arrays. Guards the tentpole's zero-allocation claim.
func TestSearchAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g, clusters := allocFix(t)
	g.GenerateTopNStop(clusters, 3, nil) // warm the pool and every backing array

	if n := testing.AllocsPerRun(50, func() { g.GenerateTopNStop(clusters, 0, nil) }); n > 0 {
		t.Errorf("warm Generate allocates %v times per run", n)
	}
	if n := testing.AllocsPerRun(50, func() { g.GenerateTopNStop(clusters, 3, nil) }); n > 0 {
		t.Errorf("warm GenerateTopN allocates %v times per run", n)
	}
	if n := testing.AllocsPerRun(50, func() { g.GenerateTopNStop(clusters[:1], 0, nil) }); n > 0 {
		t.Errorf("warm GenerateInCluster allocates %v times per run", n)
	}
}
