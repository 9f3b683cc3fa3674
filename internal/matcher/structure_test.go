package matcher

import (
	"testing"

	"bellflower/internal/schema"
)

func tree(spec string) *schema.Tree { return schema.MustParseSpec(spec) }

func TestPathContextMatcher(t *testing.T) {
	m := PathContextMatcher{}
	a := tree("lib(book(title))")
	b := tree("library(book(title))")
	c := tree("zoo(animal(cage))")

	same := m.Similarity(a.Find("title"), b.Find("title"))
	diff := m.Similarity(a.Find("title"), c.Find("cage"))
	if same <= diff {
		t.Errorf("path context ordering: same=%v diff=%v", same, diff)
	}
	if got := m.Similarity(a.Find("title"), a.Find("title")); got != 1 {
		t.Errorf("identical path similarity = %v", got)
	}
	// Different depths: title under lib/book vs top-level title.
	d := tree("title")
	partial := m.Similarity(a.Find("title"), d.Root())
	if partial <= 0 || partial >= 1 {
		t.Errorf("partial path similarity = %v, want strictly between 0 and 1", partial)
	}
}

func TestChildContextMatcher(t *testing.T) {
	m := ChildContextMatcher{}
	a := tree("book(title,author,isbn)")
	b := tree("publication(title,author,year)")
	c := tree("animal(species,cage)")

	close := m.Similarity(a.Root(), b.Root())
	far := m.Similarity(a.Root(), c.Root())
	if close <= far {
		t.Errorf("child context ordering: close=%v far=%v", close, far)
	}
	// two leaves
	if got := m.Similarity(a.Find("title"), b.Find("title")); got != 1 {
		t.Errorf("leaf-leaf = %v, want 1", got)
	}
	// leaf vs container: neutral
	if got := m.Similarity(a.Find("title"), b.Root()); got != 0.5 {
		t.Errorf("leaf-container = %v, want 0.5", got)
	}
}

func TestLeafContextMatcher(t *testing.T) {
	m := LeafContextMatcher{}
	a := tree("book(info(title,author),isbn)")
	b := tree("volume(title,author,isbn)") // same leaves, different shape
	c := tree("zoo(animal(species),cage)")

	same := m.Similarity(a.Root(), b.Root())
	diff := m.Similarity(a.Root(), c.Root())
	if same < 0.9 {
		t.Errorf("same-leaves similarity = %v, want ~1", same)
	}
	if diff >= same {
		t.Errorf("leaf context ordering: same=%v diff=%v", same, diff)
	}
}

func TestNameListSimilarity(t *testing.T) {
	cases := []struct {
		a, b []string
		lo   float64
		hi   float64
	}{
		{nil, nil, 1, 1},
		{[]string{"x"}, nil, 0, 0},
		{[]string{"a", "b"}, []string{"a", "b"}, 1, 1},
		{[]string{"a", "b"}, []string{"b", "a"}, 1, 1},             // order-free
		{[]string{"title"}, []string{"title", "author"}, 0.5, 0.6}, // dilution
	}
	for _, tc := range cases {
		got := nameListSimilarity(tc.a, tc.b)
		if got < tc.lo-1e-9 || got > tc.hi+1e-9 {
			t.Errorf("nameListSimilarity(%v,%v) = %v, want in [%v,%v]", tc.a, tc.b, got, tc.lo, tc.hi)
		}
		// symmetry
		if rev := nameListSimilarity(tc.b, tc.a); rev != got {
			t.Errorf("nameListSimilarity not symmetric for %v,%v", tc.a, tc.b)
		}
	}
}

func TestRescore(t *testing.T) {
	personal := tree("book(title)")
	repo := schema.NewRepository()
	repo.MustAdd(tree("lib(book(title),title)"))
	cands := FindCandidates(personal, repo, NameMatcher{}, Config{MinSim: 0.5})

	// weight 0: identity
	same := Rescore(cands, PathContextMatcher{}, 0, nil)
	for i := range cands.Sets {
		if len(same.Sets[i].Elems) != len(cands.Sets[i].Elems) {
			t.Fatalf("weight-0 rescore changed set %d size", i)
		}
		for j, c := range cands.Sets[i].Elems {
			if same.Sets[i].Elems[j].Sim != c.Sim {
				t.Errorf("weight-0 rescore changed sim")
			}
		}
	}

	// weight 1: pure structure — the nested title (under book, like the
	// personal schema's) must outrank the stray top-level title.
	structural := Rescore(cands, PathContextMatcher{}, 1, nil)
	titleSet := &structural.Sets[personal.Find("title").Pre]
	if len(titleSet.Elems) < 2 {
		t.Fatalf("title candidates = %d", len(titleSet.Elems))
	}
	best := titleSet.Elems[0].Node
	if best.Parent() == nil || best.Parent().Name != "book" {
		t.Errorf("structure rescoring should prefer the nested title, got %v", best.PathString())
	}
	// sorted descending
	for j := 1; j < len(titleSet.Elems); j++ {
		if titleSet.Elems[j].Sim > titleSet.Elems[j-1].Sim {
			t.Errorf("rescored candidates not sorted")
		}
	}

	// keep filter drops nodes
	none := Rescore(cands, PathContextMatcher{}, 0.5, func(*schema.Node) bool { return false })
	for i := range none.Sets {
		if len(none.Sets[i].Elems) != 0 {
			t.Errorf("keep=false left candidates in set %d", i)
		}
	}
}

func TestRescorePanicsOnBadWeight(t *testing.T) {
	personal := tree("a")
	repo := schema.NewRepository()
	repo.MustAdd(tree("a"))
	cands := FindCandidates(personal, repo, NameMatcher{}, Config{})
	defer func() {
		if recover() == nil {
			t.Errorf("bad weight should panic")
		}
	}()
	Rescore(cands, PathContextMatcher{}, 2, nil)
}
