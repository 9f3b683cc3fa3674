package labeling

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bellflower/internal/schema"
)

func buildRepo(specs ...string) *schema.Repository {
	r := schema.NewRepository()
	for _, s := range specs {
		r.MustAdd(schema.MustParseSpec(s))
	}
	return r
}

func TestIndexPaperExample(t *testing.T) {
	// Repository fragment from Fig. 1 of the paper.
	repo := buildRepo("lib(address,book(authorName,data(title),shelf))")
	ix := NewIndex(repo)
	tr := repo.Tree(0)
	lib := tr.Find("lib")
	addr := tr.Find("address")
	book := tr.Find("book")
	an := tr.Find("authorName")
	data := tr.Find("data")
	title := tr.Find("title")
	shelf := tr.Find("shelf")

	tests := []struct {
		a, b *schema.Node
		d    int
		lca  *schema.Node
	}{
		{lib, lib, 0, lib},
		{lib, addr, 1, lib},
		{lib, title, 3, lib},
		{addr, title, 4, lib},
		{an, title, 3, book},
		{title, shelf, 3, book},
		{data, title, 1, data},
	}
	for _, tc := range tests {
		if got := ix.DistanceID(tc.a.ID, tc.b.ID); got != tc.d {
			t.Errorf("Distance(%v,%v) = %d, want %d", tc.a, tc.b, got, tc.d)
		}
		if got := ix.LCA(tc.a, tc.b); got != tc.lca {
			t.Errorf("LCA(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.lca)
		}
	}
}

func TestCrossTree(t *testing.T) {
	repo := buildRepo("a(b)", "x(y)")
	ix := NewIndex(repo)
	a := repo.Tree(0).Find("a")
	y := repo.Tree(1).Find("y")
	if ix.SameTree(a, y) {
		t.Errorf("SameTree across trees = true")
	}
	if got := ix.DistanceID(a.ID, y.ID); got != -1 {
		t.Errorf("cross-tree Distance = %d, want -1", got)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("cross-tree LCA should panic")
		}
	}()
	ix.LCA(a, y)
}

func TestSingleNodeTrees(t *testing.T) {
	repo := buildRepo("a", "b", "c")
	ix := NewIndex(repo)
	a := repo.Tree(0).Root()
	if got := ix.DistanceID(a.ID, a.ID); got != 0 {
		t.Errorf("self distance = %d", got)
	}
	if got := ix.LCA(a, a); got != a {
		t.Errorf("self LCA = %v", got)
	}
}

// randomForest builds a repository of nt random trees with up to maxN nodes.
func randomForest(rng *rand.Rand, nt, maxN int) *schema.Repository {
	repo := schema.NewRepository()
	for i := 0; i < nt; i++ {
		n := 1 + rng.Intn(maxN)
		b := schema.NewBuilder("t")
		nodes := []*schema.Node{b.Root("n")}
		for j := 1; j < n; j++ {
			p := nodes[rng.Intn(len(nodes))]
			nodes = append(nodes, b.Element(p, "n"))
		}
		repo.MustAdd(b.MustTree())
	}
	return repo
}

// Property: the O(1) index agrees with the naive parent-walking Distance and
// LCA on random forests.
func TestIndexMatchesNaiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		repo := randomForest(rng, 1+rng.Intn(4), 60)
		ix := NewIndex(repo)
		for trial := 0; trial < 50; trial++ {
			tr := repo.Tree(rng.Intn(repo.NumTrees()))
			ns := tr.Nodes()
			a := ns[rng.Intn(len(ns))]
			b := ns[rng.Intn(len(ns))]
			if ix.DistanceID(a.ID, b.ID) != tr.Distance(a, b) {
				return false
			}
			if ix.LCA(a, b) != schema.LCA(a, b) {
				return false
			}
			if _, depth := ix.ParentDepth(); int(depth[a.ID]) != a.Depth {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: PathLengthSum of a single pair equals Distance; for chains of
// pairs along a personal-schema shape, the union never exceeds the sum of
// individual path lengths and is at least the largest individual length.
func TestPathLengthSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		repo := randomForest(rng, 1, 50)
		ix := NewIndex(repo)
		ns := repo.Tree(0).Nodes()
		pick := func() *schema.Node { return ns[rng.Intn(len(ns))] }
		a, b, c := pick(), pick(), pick()
		if ix.PathLengthSum([][2]*schema.Node{{a, b}}) != ix.DistanceID(a.ID, b.ID) {
			return false
		}
		union := ix.PathLengthSum([][2]*schema.Node{{a, b}, {a, c}})
		dab, dac := ix.DistanceID(a.ID, b.ID), ix.DistanceID(a.ID, c.ID)
		if union > dab+dac {
			return false
		}
		max := dab
		if dac > max {
			max = dac
		}
		return union >= max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPathLengthSumSharedEdges(t *testing.T) {
	repo := buildRepo("r(a(b(c)))")
	ix := NewIndex(repo)
	tr := repo.Tree(0)
	r := tr.Find("r")
	b := tr.Find("b")
	c := tr.Find("c")
	// path r-b (2 edges) and r-c (3 edges) share the r-a-b prefix: union = 3
	got := ix.PathLengthSum([][2]*schema.Node{{r, b}, {r, c}})
	if got != 3 {
		t.Errorf("union = %d, want 3", got)
	}
}

// checkLCA compares LCA, Distance and DistanceID with parent walks on pairs
// of random nodes of ix's repository, same-tree and cross-tree.
func checkLCA(t testing.TB, ix *Index, rng *rand.Rand, pairs int) {
	t.Helper()
	repo := ix.Repository()
	for i := 0; i < pairs; i++ {
		a := repo.Node(rng.Intn(repo.Len()))
		b := repo.Node(rng.Intn(repo.Len()))
		if i%4 != 0 { // mostly pairs of one tree
			ns := a.Tree().Nodes()
			b = ns[rng.Intn(len(ns))]
		}
		want := -1
		if a.Tree() == b.Tree() {
			want = a.Tree().Distance(a, b)
			if got, l := ix.LCA(a, b), schema.LCA(a, b); got != l {
				t.Fatalf("LCA(%d, %d) = %d, parent walk %d", a.ID, b.ID, got.ID, l.ID)
			}
		}
		if got := ix.DistanceID(a.ID, b.ID); got != want {
			t.Fatalf("Distance(%d, %d) = %d, parent walk %d", a.ID, b.ID, got, want)
		}
		if got := ix.DistanceID(a.ID, b.ID); got != want {
			t.Fatalf("DistanceID(%d, %d) = %d, parent walk %d", a.ID, b.ID, got, want)
		}
	}
}

// FuzzLCA: the range minimum over node IDs answers LCA and Distance as a
// parent walk does, over forests of every shape shapedParents draws, built
// through schema.Builder and Repository.
func FuzzLCA(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(60), uint8(2))
	f.Add(int64(2), uint8(0), uint16(500), uint8(0)) // one long path
	f.Add(int64(3), uint8(5), uint16(1), uint8(1))   // single nodes
	f.Add(int64(4), uint8(2), uint16(300), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, trees uint8, maxN uint16, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		ix := indexFromParents(forestParents(rng, 1+int(trees%6), 1+int(maxN%600), int(shape)), rng)
		checkLCA(t, ix, rng, 300)
	})
}

func BenchmarkIndexBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	repo := randomForest(rng, 100, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewIndex(repo)
	}
}

func BenchmarkDistance(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	repo := randomForest(rng, 50, 200)
	ix := NewIndex(repo)
	ns := repo.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := ns[i%len(ns)]
		c := ns[(i*7+3)%len(ns)]
		ix.DistanceID(a.ID, c.ID)
	}
}
