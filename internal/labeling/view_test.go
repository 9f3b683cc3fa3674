package labeling

import (
	"testing"

	"bellflower/internal/schema"
)

func viewRepo(t *testing.T) *schema.Repository {
	t.Helper()
	repo := schema.NewRepository()
	for _, spec := range []string{
		"lib(book(title,author(first,last)),shelf)",
		"store(item(name,price),clerk)",
		"archive(tome(heading))",
	} {
		repo.MustAdd(schema.MustParseSpec(spec))
	}
	if err := repo.Validate(); err != nil {
		t.Fatal(err)
	}
	return repo
}

func TestViewMembershipAndTranslation(t *testing.T) {
	repo := viewRepo(t)
	ix := NewIndex(repo)
	v := NewView(ix, []*schema.Tree{repo.Tree(0), repo.Tree(2)})

	if v.Index() != ix || v.Repository() != repo {
		t.Fatal("view does not share the index/repository it was built over")
	}
	if v.NumTrees() != 2 {
		t.Fatalf("NumTrees = %d, want 2", v.NumTrees())
	}
	wantLen := repo.Tree(0).Len() + repo.Tree(2).Len()
	if v.Len() != wantLen {
		t.Fatalf("Len = %d, want %d", v.Len(), wantLen)
	}

	// Local IDs are dense, cover exactly the member nodes, and round-trip.
	seen := make(map[int]bool)
	for _, n := range v.Nodes() {
		l := v.LocalID(n)
		if l < 0 || l >= v.Len() {
			t.Fatalf("LocalID(%v) = %d out of range", n, l)
		}
		if seen[l] {
			t.Fatalf("local ID %d assigned twice", l)
		}
		seen[l] = true
		if v.Node(l) != n {
			t.Fatalf("translation round-trip failed for %v (local %d)", n, l)
		}
		if !v.Contains(n) {
			t.Fatalf("member node %v not Contains", n)
		}
	}
	if len(seen) != wantLen {
		t.Fatalf("%d local IDs for %d member nodes", len(seen), wantLen)
	}

	// Non-member nodes are outside.
	for _, n := range repo.Tree(1).Nodes() {
		if v.Contains(n) || v.LocalID(n) != -1 {
			t.Errorf("non-member node %v reported inside the view", n)
		}
	}
	if v.Contains(nil) {
		t.Error("nil accepted as member")
	}
	// A structurally foreign node (same IDs, different repository) must not
	// slip through on ID alone.
	other := viewRepo(t)
	if v.Contains(other.Tree(0).Root()) {
		t.Error("foreign repository's node accepted")
	}
}

func TestViewStructuralQueriesMatchIndex(t *testing.T) {
	repo := viewRepo(t)
	ix := NewIndex(repo)
	v := NewView(ix, []*schema.Tree{repo.Tree(0)})

	for _, a := range repo.Tree(0).Nodes() {
		if v.TreeID(a) != ix.TreeID(a) {
			t.Fatalf("view disagrees with index on %v", a)
		}
	}

	// Queries on nodes outside the view panic rather than answer quietly.
	defer func() {
		if recover() == nil {
			t.Error("TreeID of a non-member node did not panic")
		}
	}()
	v.TreeID(repo.Tree(1).Root())
}

func TestViewStats(t *testing.T) {
	repo := viewRepo(t)
	ix := NewIndex(repo)
	v := NewView(ix, []*schema.Tree{repo.Tree(0), repo.Tree(1)})
	st := v.Stats()
	if st.Trees != 2 || st.Nodes != repo.Tree(0).Len()+repo.Tree(1).Len() {
		t.Errorf("Stats = %+v", st)
	}
	if st.MaxTree < st.MinTree || st.MinTree <= 0 {
		t.Errorf("tree extrema inconsistent: %+v", st)
	}
}

func TestIndexMemoryBytes(t *testing.T) {
	repo := viewRepo(t)
	ix := NewIndex(repo)
	b := ix.MemoryBytes()
	// Lower bound: the four per-node arrays (depth, parent, tree, byRank)
	// plus the table's per-node keys.
	if min := int64(repo.Len()) * 5 * 4; b < min {
		t.Errorf("MemoryBytes = %d, want >= %d", b, min)
	}
	// Views share the index: building them leaves its footprint alone.
	NewView(ix, repo.Trees())
	NewView(ix, repo.Trees()[:1])
	if ix.MemoryBytes() != b {
		t.Error("creating views changed the index footprint")
	}
}

func TestNewViewRejectsForeignAndDuplicateTrees(t *testing.T) {
	repo := viewRepo(t)
	other := viewRepo(t)
	ix := NewIndex(repo)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("foreign tree", func() { NewView(ix, []*schema.Tree{other.Tree(0)}) })
	mustPanic("duplicate tree", func() { NewView(ix, []*schema.Tree{repo.Tree(0), repo.Tree(0)}) })
}
