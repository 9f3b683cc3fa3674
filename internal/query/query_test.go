package query

import (
	"testing"

	"bellflower/internal/cluster"
	"bellflower/internal/labeling"
	"bellflower/internal/mapgen"
	"bellflower/internal/matcher"
	"bellflower/internal/objective"
	"bellflower/internal/schema"
)

func TestParse(t *testing.T) {
	q, err := Parse(`/book[title="Iliad"]/author`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Steps) != 2 {
		t.Fatalf("steps = %d", len(q.Steps))
	}
	if q.Steps[0].Name != "book" || q.Steps[1].Name != "author" {
		t.Errorf("steps = %+v", q.Steps)
	}
	if len(q.Steps[0].Predicates) != 1 {
		t.Fatalf("predicates = %d", len(q.Steps[0].Predicates))
	}
	p := q.Steps[0].Predicates[0]
	if len(p.Path) != 1 || p.Path[0] != "title" || p.Value != "Iliad" {
		t.Errorf("predicate = %+v", p)
	}
	if got := q.String(); got != `/book[title="Iliad"]/author` {
		t.Errorf("String = %q", got)
	}
}

func TestParseVariants(t *testing.T) {
	good := []string{
		"/a",
		"/a/b/c",
		`/a[b="1"]`,
		`/a[b/c="deep"]/d`,
		`/a[b='single']`,
		`/a[b="x"][c="y"]`,
	}
	for _, src := range good {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
	bad := []string{
		"", "a/b", "/", "/a[", "/a[b]", `/a[b=]`, `/a[b="x"`, `/a[="x"]`, "//a",
		`/a[b="x]`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): error expected", src)
		}
	}
}

// fixture reproduces the paper's Fig. 1: personal book(title,author) mapped
// into lib(address, book(authorName, data(title), shelf)).
func fixture(t *testing.T) (*schema.Tree, mapgen.Mapping, *labeling.Index) {
	t.Helper()
	personal := schema.MustParseSpec("book(title,author)")
	repo := schema.NewRepository()
	repo.MustAdd(schema.MustParseSpec("lib(address,book(authorName,data(title),shelf))"))
	ix := labeling.NewIndex(repo)
	cands := matcher.FindCandidates(personal, repo, matcher.NameMatcher{}, matcher.Config{MinSim: 0.4})
	ev := objective.NewEvaluator(objective.DefaultParams(), ix, personal)
	g := mapgen.New(mapgen.Config{Threshold: 0.5}, ix, ev, cands)
	ms, _ := g.GenerateTopNStop(cluster.TreeClusters(ix, cands).Clusters, 0, nil)
	if len(ms) == 0 {
		t.Fatalf("fixture produced no mappings")
	}
	// pick the mapping matching Fig. 1 (book->book, title->title under
	// data, author->authorName)
	for _, m := range ms {
		if m.Images[0].Name == "book" && m.Images[1].Name == "title" && m.Images[2].Name == "authorName" {
			return personal, m, ix
		}
	}
	t.Fatalf("Fig. 1 mapping not found among %d mappings", len(ms))
	return nil, mapgen.Mapping{}, nil
}

func TestRewritePaperExample(t *testing.T) {
	personal, m, ix := fixture(t)
	q, err := Parse(`/book[title="Iliad"]/author`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	got, err := Rewrite(q, personal, m, ix)
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	// book -> /lib/book; title predicate -> data/title; author -> authorName
	want := `/lib/book[data/title="Iliad"]/authorName`
	if got != want {
		t.Errorf("Rewrite = %q, want %q", got, want)
	}
}

func TestRewriteNoPredicate(t *testing.T) {
	personal, m, ix := fixture(t)
	q := mustParse(t, "/book/title")
	got, err := Rewrite(q, personal, m, ix)
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	if got != "/lib/book/data/title" {
		t.Errorf("Rewrite = %q", got)
	}
}

func TestRewriteErrors(t *testing.T) {
	personal, m, ix := fixture(t)
	cases := []string{
		"/wrongroot/title",
		"/book/nope",
		`/book[zzz="1"]`,
	}
	for _, src := range cases {
		q := mustParse(t, src)
		if _, err := Rewrite(q, personal, m, ix); err == nil {
			t.Errorf("Rewrite(%q): error expected", src)
		}
	}
	// mapping length mismatch
	q := mustParse(t, "/book")
	short := m
	short.Images = short.Images[:1]
	if _, err := Rewrite(q, personal, short, ix); err == nil {
		t.Errorf("short mapping accepted")
	}
}

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return q
}

func TestRewriteUpwardPath(t *testing.T) {
	// Force a mapping where a personal child maps to a sibling branch:
	// personal a(b): a->x, b->y where y is NOT under x.
	personal := schema.MustParseSpec("a(b)")
	repo := schema.NewRepository()
	repo.MustAdd(schema.MustParseSpec("r(x,y)"))
	ix := labeling.NewIndex(repo)
	tr := repo.Tree(0)
	m := mapgen.Mapping{
		Images: []*schema.Node{tr.Find("x"), tr.Find("y")},
		Sims:   []float64{1, 1},
	}
	q := mustParse(t, "/a/b")
	got, err := Rewrite(q, personal, m, ix)
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	if got != "/r/x/../y" {
		t.Errorf("Rewrite = %q, want /r/x/../y", got)
	}
}
