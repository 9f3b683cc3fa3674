package matcher

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bellflower/internal/schema"
)

func node(name, typ string) *schema.Node {
	b := schema.NewBuilder("t")
	r := b.Root("root")
	n := b.TypedElement(r, name, typ)
	b.MustTree()
	return n
}

func TestNameMatcher(t *testing.T) {
	m := NameMatcher{}
	if got := m.Similarity(node("book", ""), node("book", "")); got != 1 {
		t.Errorf("identical names = %v", got)
	}
	if got := m.Similarity(node("book", ""), node("Book", "")); got != 1 {
		t.Errorf("case-folded names = %v", got)
	}
	exact := m.Similarity(node("author", ""), node("author", ""))
	near := m.Similarity(node("author", ""), node("authors", ""))
	far := m.Similarity(node("author", ""), node("zzzzz", ""))
	if !(exact > near && near > far) {
		t.Errorf("ordering wrong: %v %v %v", exact, near, far)
	}

	ta := NameMatcher{TokenAware: true}
	plain := m.Similarity(node("authorName", ""), node("name_author", ""))
	token := ta.Similarity(node("authorName", ""), node("name_author", ""))
	if token <= plain {
		t.Errorf("token-aware should beat plain on reordered compounds: %v <= %v", token, plain)
	}
}

func TestSynonymMatcher(t *testing.T) {
	m := DefaultSynonyms()
	cases := []struct {
		a, b string
		want float64
	}{
		{"author", "writer", 1},
		{"Writer", "CREATOR", 1},
		{"email", "e-mail", 1},
		{"book", "author", 0},
		{"same", "same", 1}, // identical always 1
	}
	for _, tc := range cases {
		if got := m.Similarity(node(tc.a, ""), node(tc.b, "")); got != tc.want {
			t.Errorf("synonym(%q,%q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestSynonymMatcherAddGroup(t *testing.T) {
	m := NewSynonymMatcher()
	m.AddGroup("isbn", "identifier")
	if got := m.Similarity(node("ISBN", ""), node("Identifier", "")); got != 1 {
		t.Errorf("added group not matched: %v", got)
	}
	// symmetry
	if got := m.Similarity(node("identifier", ""), node("isbn", "")); got != 1 {
		t.Errorf("synonym not symmetric: %v", got)
	}
}

func TestTypeMatcher(t *testing.T) {
	m := TypeMatcher{}
	cases := []struct {
		a, b string
		want float64
	}{
		{"string", "string", 1},
		{"string", "token", 0.75},  // same family
		{"int", "decimal", 0.75},   // numeric family
		{"string", "integer", 0},   // different families
		{"", "string", 0.5},        // unknown
		{"string", "", 0.5},        // unknown
		{"date", "dateTime", 0.75}, // time family
	}
	for _, tc := range cases {
		if got := m.Similarity(node("x", tc.a), node("y", tc.b)); got != tc.want {
			t.Errorf("type(%q,%q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCombined(t *testing.T) {
	c := NewCombined(
		Weighted{NameMatcher{}, 2},
		Weighted{TypeMatcher{}, 1},
	)
	// name sim 1, type sim 1 -> 1
	if got := c.Similarity(node("a", "string"), node("a", "string")); got != 1 {
		t.Errorf("combined identical = %v", got)
	}
	// name sim 0 (totally different), type 0 -> 0
	if got := c.Similarity(node("aaaa", "string"), node("zzzz", "integer")); got != 0 {
		t.Errorf("combined disjoint = %v", got)
	}
	// weighted: name=1 (w2), type=0 (w1) -> 2/3
	got := c.Similarity(node("a", "string"), node("a", "integer"))
	if got < 0.66 || got > 0.67 {
		t.Errorf("combined weighting = %v, want 2/3", got)
	}
	if c.Name() != "combined(name(fuzzy)+datatype)" {
		t.Errorf("Name = %q", c.Name())
	}
}

func TestCombinedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("zero-weight combined should panic")
		}
	}()
	NewCombined()
}

func buildRepo(specs ...string) *schema.Repository {
	r := schema.NewRepository()
	for _, s := range specs {
		r.MustAdd(schema.MustParseSpec(s))
	}
	return r
}

func TestFindCandidates(t *testing.T) {
	personal := schema.MustParseSpec("book(title,author)")
	repo := buildRepo(
		"lib(address,book(authorName,data(title),shelf))",
		"store(books(book(title,author)))",
		"zoo(animal(cage))",
	)
	cands := FindCandidates(personal, repo, NameMatcher{}, Config{MinSim: 0.55})
	if len(cands.Sets) != 3 {
		t.Fatalf("want 3 candidate sets, got %d", len(cands.Sets))
	}
	bookSet := &cands.Sets[personal.Find("book").Pre]
	if len(bookSet.Elems) < 2 {
		t.Fatalf("book should match at least the two 'book' nodes, got %d", len(bookSet.Elems))
	}
	// exact matches first
	if bookSet.Elems[0].Sim != 1 {
		t.Errorf("best book candidate sim = %v", bookSet.Elems[0].Sim)
	}
	// sorted descending
	for i := 1; i < len(bookSet.Elems); i++ {
		if bookSet.Elems[i].Sim > bookSet.Elems[i-1].Sim {
			t.Errorf("candidates not sorted at %d", i)
		}
	}
	// author set should include authorName and author
	authorSet := &cands.Sets[personal.Find("author").Pre]
	foundAuthor, foundAuthorName := false, false
	for _, c := range authorSet.Elems {
		switch c.Node.Name {
		case "author":
			foundAuthor = true
		case "authorName":
			foundAuthorName = true
		}
	}
	if !foundAuthor {
		t.Errorf("author candidate missing exact match")
	}
	if !foundAuthorName {
		t.Errorf("author candidate missing authorName (fuzzy)")
	}
	if cands.TotalMappingElements() == 0 {
		t.Errorf("no mapping elements found")
	}
}

func TestCandidatesMinSet(t *testing.T) {
	personal := schema.MustParseSpec("book(title,qqqqzw)")
	repo := buildRepo("lib(book(title),book(title))")
	cands := FindCandidates(personal, repo, NameMatcher{}, Config{MinSim: 0.5})
	// qqqqzw matches nothing; MinSet must skip empty sets.
	min := cands.MinSet()
	if min == -1 {
		t.Fatalf("MinSet = -1, want a non-empty set")
	}
	if len(cands.Sets[min].Elems) == 0 {
		t.Errorf("MinSet returned an empty set")
	}

	// All-empty case.
	p2 := schema.MustParseSpec("qqqq(wwww)")
	c2 := FindCandidates(p2, repo, NameMatcher{}, Config{MinSim: 0.9})
	if got := c2.MinSet(); got != -1 {
		t.Errorf("MinSet on empty candidates = %d, want -1", got)
	}
}

// Property: every candidate respects the MinSim threshold and sets are
// sorted descending; the similarity stored equals the matcher's output.
func TestFindCandidatesProperty(t *testing.T) {
	m := NameMatcher{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		words := []string{"book", "title", "author", "bok", "autor", "name", "addr", "zzz"}
		pick := func() string { return words[rng.Intn(len(words))] }
		personal := schema.MustParseSpec(pick() + "(" + pick() + "," + pick() + ")")
		repo := buildRepo(
			pick()+"("+pick()+","+pick()+"("+pick()+"))",
			pick()+"("+pick()+")",
		)
		minSim := float64(rng.Intn(10)) / 10
		cands := FindCandidates(personal, repo, m, Config{MinSim: minSim})
		for i := range cands.Sets {
			set := &cands.Sets[i]
			for j, c := range set.Elems {
				if c.Sim <= minSim {
					return false
				}
				if j > 0 && set.Elems[j-1].Sim < c.Sim {
					return false
				}
				if m.Similarity(set.Personal, c.Node) != c.Sim {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestProjectMatchesShardLocalFindCandidates is the core exactness claim
// of the serving layer's candidate pre-pass: projecting (Restrict) the
// full-repository candidate set onto a shard yields byte-for-byte the
// candidates the shard computes itself with the keyed kernel over a
// vocabulary of just its own trees' nodes — what the pre-pass-failure
// fallback runs.
func TestProjectMatchesShardLocalFindCandidates(t *testing.T) {
	full := schema.NewRepository()
	for _, s := range []string{
		"lib(address,book(authorName,data(title),shelf))",
		"store(book(title,author,isbn@),order(id,customer(name,email)))",
		"catalog(item(name,price),publisher(name,address))",
	} {
		full.MustAdd(schema.MustParseSpec(s))
	}
	personal := schema.MustParseSpec("book(title,author)")
	cfg := Config{MinSim: 0.3}
	ni := NewNameIndex(full)
	cands := ni.Vocabulary(full.Nodes()).FindCandidates(personal, NameMatcher{}, cfg)

	// Shard: trees 2 and 0, listed in the opposite order to the repository.
	var shardNodes []*schema.Node
	member := make(map[*schema.Tree]bool)
	for _, id := range []int{2, 0} {
		member[full.Tree(id)] = true
		shardNodes = append(shardNodes, full.Tree(id).Nodes()...)
	}
	got := cands.Restrict(func(n *schema.Node) bool { return member[n.Tree()] })
	want := ni.Vocabulary(shardNodes).FindCandidates(personal, NameMatcher{}, cfg)
	if want.TotalMappingElements() == 0 {
		t.Fatal("shard has no candidates; comparison is vacuous")
	}
	assertSameCandidates(t, "projection vs shard-local", got, want)
}

// TestProjectPartitionCovers checks that projecting (Restrict) through a
// disjoint partition of the repository's trees splits the candidate
// multiset without losing or duplicating a pair, and that projecting onto
// no tree keeps nothing.
func TestProjectPartitionCovers(t *testing.T) {
	full := schema.NewRepository()
	for _, s := range []string{
		"a(name,title)", "b(name(title),email)", "c(title,author(name))",
	} {
		full.MustAdd(schema.MustParseSpec(s))
	}
	personal := schema.MustParseSpec("book(title,name)")
	cands := FindCandidates(personal, full, NameMatcher{}, Config{MinSim: 0.2})

	shardTrees := [][]int{{0, 2}, {1}, {}}
	total := 0
	for _, ids := range shardTrees {
		member := make(map[*schema.Tree]bool)
		for _, id := range ids {
			member[full.Tree(id)] = true
		}
		got := cands.Restrict(func(n *schema.Node) bool { return member[n.Tree()] })
		if len(ids) == 0 && got.TotalMappingElements() != 0 {
			t.Errorf("empty projection kept %d mapping elements", got.TotalMappingElements())
		}
		total += got.TotalMappingElements()
	}
	if total != cands.TotalMappingElements() {
		t.Errorf("projections cover %d mapping elements, want %d", total, cands.TotalMappingElements())
	}
}

func TestRebind(t *testing.T) {
	repo := schema.NewRepository()
	repo.MustAdd(schema.MustParseSpec("lib(book(title,author))"))
	p1 := schema.MustParseSpec("book(title,author)")
	p2 := schema.MustParseSpec("book(title,author)") // same shape, new instance
	cands := FindCandidates(p1, repo, NameMatcher{}, Config{MinSim: 0.3})

	if cands.Rebind(p1) != cands {
		t.Error("rebinding to the bound tree should return the receiver")
	}
	re := cands.Rebind(p2)
	if re.Personal != p2 {
		t.Error("rebind kept the old personal tree")
	}
	for i := range re.Sets {
		if re.Sets[i].Personal != p2.NodeAt(i) {
			t.Errorf("set %d bound to a node outside the new tree", i)
		}
		if len(re.Sets[i].Elems) != len(cands.Sets[i].Elems) {
			t.Errorf("set %d lost candidates in rebind", i)
		}
	}
}

// TestRestrictEqualsFindCandidatesAmong: restricting a full-repository
// candidate set to one shard's trees is byte-for-byte what element
// matching against only those trees' nodes would have produced — the
// exactness the shared-index shard projection relies on, with no
// remapping and no re-sort.
func TestRestrictEqualsFindCandidatesAmong(t *testing.T) {
	repo := schema.NewRepository()
	for _, spec := range []string{
		"lib(book(title,author),shelf)",
		"store(book(title,isbn),clerk(name))",
		"archive(tome(title,writer))",
	} {
		repo.MustAdd(schema.MustParseSpec(spec))
	}
	personal := schema.MustParseSpec("book(title,author)")
	cfg := Config{MinSim: 0.3}
	full := FindCandidates(personal, repo, NameMatcher{}, cfg)

	// "Shard" = trees 0 and 2.
	member := map[*schema.Tree]bool{repo.Tree(0): true, repo.Tree(2): true}
	keep := func(n *schema.Node) bool { return member[n.Tree()] }
	var shardNodes []*schema.Node
	for _, tr := range []*schema.Tree{repo.Tree(0), repo.Tree(2)} {
		shardNodes = append(shardNodes, tr.Nodes()...)
	}

	got := full.Restrict(keep)
	want := FindCandidatesAmong(personal, shardNodes, NameMatcher{}, cfg)
	if got.Personal != personal || len(got.Sets) != len(want.Sets) {
		t.Fatalf("shape mismatch: %d sets vs %d", len(got.Sets), len(want.Sets))
	}
	for i := range want.Sets {
		g, w := got.Sets[i].Elems, want.Sets[i].Elems
		if len(g) != len(w) {
			t.Fatalf("set %d: %d candidates, want %d", i, len(g), len(w))
		}
		for j := range w {
			if g[j].Node != w[j].Node || g[j].Sim != w[j].Sim {
				t.Fatalf("set %d candidate %d: got (%v,%v), want (%v,%v)",
					i, j, g[j].Node, g[j].Sim, w[j].Node, w[j].Sim)
			}
		}
		for _, c := range g {
			if !keep(c.Node) {
				t.Fatalf("set %d kept non-member node %v", i, c.Node)
			}
		}
	}
	// The restriction shares node objects with the original (no clones).
	for i := range got.Sets {
		for _, c := range got.Sets[i].Elems {
			if repo.Node(c.Node.ID) != c.Node {
				t.Fatalf("restricted candidate %v is not the repository's own node", c.Node)
			}
		}
	}
}
