package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bellflower/internal/labeling"
	"bellflower/internal/matcher"
	"bellflower/internal/schema"
)

// fixture builds a personal schema, repository, index and candidates.
func fixture(personalSpec string, repoSpecs ...string) (*schema.Tree, *schema.Repository, *labeling.Index, *matcher.Candidates) {
	personal := schema.MustParseSpec(personalSpec)
	repo := schema.NewRepository()
	for _, s := range repoSpecs {
		repo.MustAdd(schema.MustParseSpec(s))
	}
	ix := labeling.NewIndex(repo)
	cands := matcher.FindCandidates(personal, repo, matcher.NameMatcher{}, matcher.Config{MinSim: 0.5})
	return personal, repo, ix, cands
}

func TestBuildElements(t *testing.T) {
	_, _, ix, cands := fixture("book(title)",
		"lib(book(title),title)")
	elems := BuildElements(ix, cands)
	// repo nodes: lib, book, title, title — book matches bit0, titles bit1.
	byName := map[string]Element{}
	for _, e := range elems {
		byName[e.Node.Name] = e
	}
	if byName["book"].Mask != 1 {
		t.Errorf("book mask = %b", byName["book"].Mask)
	}
	if byName["title"].Mask != 2 {
		t.Errorf("title mask = %b", byName["title"].Mask)
	}
	// no duplicates
	seen := map[int]bool{}
	for _, e := range elems {
		if seen[e.Node.ID] {
			t.Errorf("element %v duplicated", e.Node)
		}
		seen[e.Node.ID] = true
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
	bad := []Config{
		{MaxIterations: 0, Stability: 0.05},
		{MaxIterations: 5, Stability: -1},
		{MaxIterations: 5, Stability: 2},
		{MaxIterations: 5, Stability: 0.05, JoinThreshold: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
}

func TestTreeClustersBaseline(t *testing.T) {
	personal, _, ix, cands := fixture("book(title,author)",
		"lib(book(title,author))",
		"shop(item(price))",
		"store(book(title,author(name)))",
	)
	res := TreeClusters(ix, cands)
	// Tree 1 (shop) has no candidates at 0.5 threshold; trees 0 and 2 do.
	if len(res.Clusters) != 2 {
		t.Fatalf("tree clusters = %d, want 2", len(res.Clusters))
	}
	for _, c := range res.Clusters {
		for _, e := range c.Elements {
			if ix.TreeID(e.Node) != c.TreeID {
				t.Errorf("cluster %d contains node from tree %d", c.ID, ix.TreeID(e.Node))
			}
		}
	}
	useful := res.UsefulClusters(personal.Len())
	if len(useful) != 2 {
		t.Errorf("useful tree clusters = %d, want 2", len(useful))
	}
}

func TestKMeansBasic(t *testing.T) {
	personal, _, ix, cands := fixture("book(title,author)",
		"lib(book(title,author),magazine(title,editor))",
		"store(dept(book(title,author(name)),cd(title,artist)))",
	)
	res, err := KMeans(ix, cands, DefaultConfig())
	if err != nil {
		t.Fatalf("KMeans: %v", err)
	}
	if len(res.Clusters) == 0 {
		t.Fatalf("no clusters formed")
	}
	if res.Iterations < 1 {
		t.Errorf("iterations = %d", res.Iterations)
	}
	full := uint64(1)<<uint(personal.Len()) - 1
	// every cluster must be tree-pure and its medoid must be a member
	for _, c := range res.Clusters {
		medoidIsMember := false
		for _, e := range c.Elements {
			if ix.TreeID(e.Node) != c.TreeID {
				t.Errorf("cluster %d not tree-pure", c.ID)
			}
			if e.Node == c.Medoid {
				medoidIsMember = true
			}
		}
		if !medoidIsMember {
			t.Errorf("cluster %d medoid %v is not a member", c.ID, c.Medoid)
		}
		_ = c.Useful(full) // must not panic
	}
	// at least one useful cluster should exist (both book subtrees qualify)
	if len(res.UsefulClusters(personal.Len())) == 0 {
		t.Errorf("no useful clusters")
	}
}

func TestKMeansElementConservation(t *testing.T) {
	_, _, ix, cands := fixture("book(title,author)",
		"lib(book(title,author),magazine(title,editor))",
		"store(book(title,author))",
	)
	res, err := KMeans(ix, cands, DefaultConfig())
	if err != nil {
		t.Fatalf("KMeans: %v", err)
	}
	inClusters := 0
	seen := map[int]bool{}
	for _, c := range res.Clusters {
		for _, e := range c.Elements {
			if seen[e.Node.ID] {
				t.Fatalf("element %v in two clusters", e.Node)
			}
			seen[e.Node.ID] = true
			inClusters++
		}
	}
	total := len(BuildElements(ix, cands))
	if inClusters+res.Unassigned != total {
		t.Errorf("conservation: %d clustered + %d unassigned != %d total",
			inClusters, res.Unassigned, total)
	}
}

func TestJoinReclusteringReducesClusters(t *testing.T) {
	// A chain of near-identical matches in one tree: without join every
	// MEmin seed survives as its own cluster; with join, neighbours merge.
	_, _, ix, cands := fixture("a(b)",
		"r(a(b),a(b),a(b),a(b),a(b),a(b))")
	noJoin := Config{JoinThreshold: 0, MaxIterations: 10, Stability: 0.05}
	join := Config{JoinThreshold: 4, MaxIterations: 10, Stability: 0.05}
	r1, err := KMeans(ix, cands, noJoin)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := KMeans(ix, cands, join)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Clusters) >= len(r1.Clusters) {
		t.Errorf("join did not reduce clusters: %d -> %d", len(r1.Clusters), len(r2.Clusters))
	}
	if len(r2.Clusters) < 1 {
		t.Errorf("join removed everything")
	}
}

func TestRemoveReclusteringDropsTinyClusters(t *testing.T) {
	_, _, ix, cands := fixture("a(b)",
		"r(a(b),a(b))", "lone(a)") // tree 1 has a single 'a' element
	cfg := Config{RemoveBelow: 2, MaxIterations: 10, Stability: 0.05}
	res, err := KMeans(ix, cands, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Clusters {
		if c.Len() < 2 {
			t.Errorf("cluster %d has %d < 2 elements despite RemoveBelow", c.ID, c.Len())
		}
	}
}

func TestSplitLimitsClusterSize(t *testing.T) {
	// One big tree, every b matches: the single MEmin seed (the root r)
	// would form one huge cluster; SplitAbove must cap the size.
	spec := "r(a(b,b,b,b),a(b,b,b,b),a(b,b,b,b),a(b,b,b,b))"
	_, _, ix, cands := fixture("r(b)", spec)
	cfg := Config{SplitAbove: 5, MaxIterations: 12, Stability: 0.0}
	res, err := KMeans(ix, cands, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// After convergence, clusters should respect the cap (splitting happens
	// every iteration; final clusters may be at most SplitAbove after the
	// last split, but the final assignment may regroup - allow 2x slack).
	for _, c := range res.Clusters {
		if c.Len() > 2*cfg.SplitAbove {
			t.Errorf("cluster %d has %d elements, split cap %d ineffective", c.ID, c.Len(), cfg.SplitAbove)
		}
	}
	if len(res.Clusters) < 2 {
		t.Errorf("expected multiple clusters after splitting, got %d", len(res.Clusters))
	}
}

func TestKMeansNoCandidates(t *testing.T) {
	_, _, ix, cands := fixture("zzzz(qqqq)", "a(b)")
	res, err := KMeans(ix, cands, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 0 {
		t.Errorf("clusters from no candidates: %d", len(res.Clusters))
	}
}

func TestKMeansDeterminism(t *testing.T) {
	_, _, ix, cands := fixture("book(title,author)",
		"lib(book(title,author),magazine(title,editor))",
		"store(dept(book(title,author(name)),cd(title,artist)))",
	)
	cfg := DefaultConfig()
	r1, _ := KMeans(ix, cands, cfg)
	r2, _ := KMeans(ix, cands, cfg)
	if len(r1.Clusters) != len(r2.Clusters) || r1.Iterations != r2.Iterations {
		t.Fatalf("non-deterministic: %d/%d clusters, %d/%d iterations",
			len(r1.Clusters), len(r2.Clusters), r1.Iterations, r2.Iterations)
	}
	for i := range r1.Clusters {
		if r1.Clusters[i].Medoid != r2.Clusters[i].Medoid ||
			r1.Clusters[i].Len() != r2.Clusters[i].Len() {
			t.Errorf("cluster %d differs between runs", i)
		}
	}
}

func TestUsefulMask(t *testing.T) {
	_, _, ix, cands := fixture("book(title)", "lib(book(title))")
	elems := BuildElements(ix, cands)
	c := &Cluster{Elements: elems}
	if !c.Useful(FullMask(2)) {
		t.Errorf("cluster with both candidates should be useful; mask=%b", c.Mask())
	}
	// Drop the title element -> no longer useful.
	var bookOnly []Element
	for _, e := range elems {
		if e.Node.Name == "book" {
			bookOnly = append(bookOnly, e)
		}
	}
	c2 := &Cluster{Elements: bookOnly}
	if c2.Useful(FullMask(2)) {
		t.Errorf("book-only cluster should not be useful")
	}
}

// randomFixture builds a random repository plus candidates for properties.
func randomFixture(rng *rand.Rand) (*labeling.Index, *matcher.Candidates) {
	return randomFixtureSized(rng, 1+rng.Intn(5), 30)
}

// randomFixtureSized is randomFixture with nt trees of 2..maxN+1 nodes.
func randomFixtureSized(rng *rand.Rand, nt, maxN int) (*labeling.Index, *matcher.Candidates) {
	words := []string{"book", "title", "author", "name", "addr", "email", "isbn", "page"}
	repo := schema.NewRepository()
	for t := 0; t < nt; t++ {
		b := schema.NewBuilder("t")
		nodes := []*schema.Node{b.Root(words[rng.Intn(len(words))])}
		n := 2 + rng.Intn(maxN)
		for i := 1; i < n; i++ {
			p := nodes[rng.Intn(len(nodes))]
			nodes = append(nodes, b.Element(p, words[rng.Intn(len(words))]))
		}
		repo.MustAdd(b.MustTree())
	}
	ix := labeling.NewIndex(repo)
	personal := schema.MustParseSpec("book(title,author)")
	cands := matcher.FindCandidates(personal, repo, matcher.NameMatcher{}, matcher.Config{MinSim: 0.5})
	return ix, cands
}

// Property: clusters are disjoint, tree-pure, contain their medoid, and
// element conservation holds, across random repositories and configs.
func TestKMeansInvariantsProperty(t *testing.T) {
	f := func(seed int64, jt, rb uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ix, cands := randomFixture(rng)
		cfg := Config{
			JoinThreshold: int(jt % 5),
			RemoveBelow:   int(rb % 3),
			MaxIterations: 8,
			Stability:     0.05,
		}
		res, err := KMeans(ix, cands, cfg)
		if err != nil {
			return false
		}
		seen := map[int]bool{}
		count := 0
		for _, c := range res.Clusters {
			medoidMember := false
			for _, e := range c.Elements {
				if seen[e.Node.ID] {
					return false
				}
				seen[e.Node.ID] = true
				count++
				if ix.TreeID(e.Node) != c.TreeID {
					return false
				}
				if e.Node == c.Medoid {
					medoidMember = true
				}
			}
			if !medoidMember {
				return false
			}
			if cfg.RemoveBelow > 0 && c.Len() < cfg.RemoveBelow {
				return false
			}
		}
		return count+res.Unassigned == len(BuildElements(ix, cands))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: larger join thresholds never increase the number of clusters
// (with the other knobs fixed and a stable seeding).
func TestJoinThresholdMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ix, cands := randomFixture(rng)
		prev := -1
		for jt := 0; jt <= 4; jt += 2 {
			cfg := Config{JoinThreshold: jt, MaxIterations: 1, Stability: 0}
			res, err := KMeans(ix, cands, cfg)
			if err != nil {
				return false
			}
			if prev >= 0 && len(res.Clusters) > prev {
				return false
			}
			prev = len(res.Clusters)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
