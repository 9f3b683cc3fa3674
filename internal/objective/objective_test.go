package objective

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bellflower/internal/labeling"
	"bellflower/internal/schema"
)

func setup(personalSpec string, repoSpecs ...string) (*schema.Tree, *schema.Repository, *labeling.Index) {
	personal := schema.MustParseSpec(personalSpec)
	repo := schema.NewRepository()
	for _, s := range repoSpecs {
		repo.MustAdd(schema.MustParseSpec(s))
	}
	return personal, repo, labeling.NewIndex(repo)
}

func TestParamsValidate(t *testing.T) {
	good := []Params{{0, 1}, {1, 1}, {0.5, 4}, DefaultParams()}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", p, err)
		}
	}
	bad := []Params{{-0.1, 1}, {1.1, 1}, {0.5, 0}, {0.5, -1}}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", p)
		}
	}
}

// Paper's Fig. 1: s = book(title,author) mapped into the gray subtree t of
// lib(address, book(authorName, data(title), shelf)).
func TestScorePaperFigure1(t *testing.T) {
	personal, repo, ix := setup("book(title,author)",
		"lib(address,book(authorName,data(title),shelf))")
	ev := NewEvaluator(Params{Alpha: 0.5, K: 4}, ix, personal)

	tr := repo.Tree(0)
	book := tr.Find("book")
	title := tr.Find("title")
	authorName := tr.Find("authorName")

	// images indexed by preorder rank of the personal nodes: book, title, author
	images := []*schema.Node{book, title, authorName}
	sims := []float64{1.0, 1.0, 0.6} // sim(author, authorName) ≈ 0.6

	sc := ev.Score(images, sims)
	// Δsim = (1+1+0.6)/3
	wantSim := (1 + 1 + 0.6) / 3
	if math.Abs(sc.Sim-wantSim) > 1e-12 {
		t.Errorf("Sim = %v, want %v", sc.Sim, wantSim)
	}
	// book->title via data = 2 edges; book->authorName = 1 edge; union = 3
	if sc.Et != 3 {
		t.Errorf("Et = %d, want 3", sc.Et)
	}
	// Δpath = 1 - (3-2)/(2*4) = 0.875
	if math.Abs(sc.Path-0.875) > 1e-12 {
		t.Errorf("Path = %v, want 0.875", sc.Path)
	}
	want := 0.5*wantSim + 0.5*0.875
	if math.Abs(sc.Delta-want) > 1e-12 {
		t.Errorf("Delta = %v, want %v", sc.Delta, want)
	}
}

func TestScorePerfectMapping(t *testing.T) {
	personal, repo, ix := setup("book(title,author)", "book(title,author)")
	ev := NewEvaluator(DefaultParams(), ix, personal)
	tr := repo.Tree(0)
	images := []*schema.Node{tr.Find("book"), tr.Find("title"), tr.Find("author")}
	sc := ev.Score(images, []float64{1, 1, 1})
	if sc.Delta != 1 || sc.Sim != 1 || sc.Path != 1 || sc.Et != 2 {
		t.Errorf("perfect mapping score = %+v", sc)
	}
}

func TestSingleNodePersonal(t *testing.T) {
	personal, repo, ix := setup("book", "lib(book)")
	ev := NewEvaluator(DefaultParams(), ix, personal)
	sc := ev.Score([]*schema.Node{repo.Tree(0).Find("book")}, []float64{1})
	if sc.Delta != 1 || sc.Path != 1 || sc.Et != 0 {
		t.Errorf("single-node score = %+v", sc)
	}
}

func TestDeltaPathClamping(t *testing.T) {
	personal, _, ix := setup("a(b)", "r(x(y(z(w(v)))))")
	ev := NewEvaluator(Params{Alpha: 0.5, K: 2}, ix, personal)
	// |Es| = 1, K = 2: Δpath = 1 - (et-1)/2
	cases := []struct {
		et   int
		want float64
	}{
		{1, 1},
		{2, 0.5},
		{3, 0},
		{4, 0}, // clamped at 0
	}
	for _, tc := range cases {
		if got := ev.DeltaPath(tc.et); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("DeltaPath(%d) = %v, want %v", tc.et, got, tc.want)
		}
	}
}

// The Δpath table is the formula, bit for bit: over |Et| 0…|Es|·(K+2) and a
// stretch beyond (the table's end, where lookups fall back to the formula),
// for the single-node schema, fractional and tiny K, and a K so large the
// table is capped.
func TestDeltaPathTableMatchesFormula(t *testing.T) {
	formula := func(es int, k float64, et int) float64 {
		if es == 0 {
			return 1
		}
		return math.Max(0, math.Min(1, 1-float64(et-es)/(float64(es)*k)))
	}
	for _, spec := range []string{"a", "a(b)", "a(b,c(d))", "a(b(c(d(e(f(g))))),h,i,j)"} {
		personal, _, ix := setup(spec, "r(x)")
		es := personal.NumEdges()
		for _, k := range []float64{0.01, 0.5, 1, 2.5, 4, 1e6} {
			ev := NewEvaluator(Params{Alpha: 0.5, K: k}, ix, personal)
			if len(ev.dpath) > maxPathTable {
				t.Fatalf("%s K=%v: table of %d entries exceeds the cap", spec, k, len(ev.dpath))
			}
			end := int(math.Min(float64(es)*(k+2), 3*maxPathTable)) + 64
			for et := 0; et <= end; et++ {
				if got, want := ev.DeltaPath(et), formula(es, k, et); got != want {
					t.Fatalf("%s K=%v: DeltaPath(%d) = %v, formula %v", spec, k, et, got, want)
				}
			}
		}
	}
}

func TestAlphaExtremes(t *testing.T) {
	personal, repo, ix := setup("a(b)", "a(x(b))")
	tr := repo.Tree(0)
	images := []*schema.Node{tr.Find("a"), tr.Find("b")}
	sims := []float64{1, 0.5}

	// α=1: only Δsim matters.
	ev1 := NewEvaluator(Params{Alpha: 1, K: 4}, ix, personal)
	if got := ev1.Score(images, sims).Delta; math.Abs(got-0.75) > 1e-12 {
		t.Errorf("alpha=1 Delta = %v, want 0.75", got)
	}
	// α=0: only Δpath matters. et=2, es=1: 1 - 1/4 = 0.75
	ev0 := NewEvaluator(Params{Alpha: 0, K: 4}, ix, personal)
	if got := ev0.Score(images, sims).Delta; math.Abs(got-0.75) > 1e-12 {
		t.Errorf("alpha=0 Delta = %v, want 0.75", got)
	}
}

func TestEvaluatorPanics(t *testing.T) {
	personal, _, ix := setup("a(b)", "a(b)")
	defer func() {
		if recover() == nil {
			t.Errorf("bad params should panic")
		}
	}()
	NewEvaluator(Params{Alpha: 2, K: 1}, ix, personal)
}

func TestScoreLengthMismatchPanics(t *testing.T) {
	personal, repo, ix := setup("a(b)", "a(b)")
	ev := NewEvaluator(DefaultParams(), ix, personal)
	defer func() {
		if recover() == nil {
			t.Errorf("length mismatch should panic")
		}
	}()
	ev.Score([]*schema.Node{repo.Tree(0).Root()}, []float64{1})
}

func TestEdgeUnion(t *testing.T) {
	_, repo, ix := setup("x", "r(a(b(c)),d)")
	tr := repo.Tree(0)
	r := tr.Find("r")
	b := tr.Find("b")
	c := tr.Find("c")
	d := tr.Find("d")

	u := NewEdgeUnion(ix)
	if u.Size() != 0 {
		t.Fatalf("empty union size = %d", u.Size())
	}
	t1 := u.Push(r, b) // r-a-b: 2 edges
	if u.Size() != 2 {
		t.Errorf("after r-b: size = %d, want 2", u.Size())
	}
	t2 := u.Push(r, c) // r-a-b-c: shares 2, adds 1
	if u.Size() != 3 {
		t.Errorf("after r-c: size = %d, want 3", u.Size())
	}
	t3 := u.Push(b, d) // b-a-r-d: shares 2, adds 1
	if u.Size() != 4 {
		t.Errorf("after b-d: size = %d, want 4", u.Size())
	}
	u.Pop(t3)
	if u.Size() != 3 {
		t.Errorf("after pop b-d: size = %d, want 3", u.Size())
	}
	u.Pop(t2)
	if u.Size() != 2 {
		t.Errorf("after pop r-c: size = %d, want 2", u.Size())
	}
	u.Pop(t1)
	if u.Size() != 0 {
		t.Errorf("after pop all: size = %d, want 0", u.Size())
	}
}

func TestEdgeUnionPopUnbalancedPanics(t *testing.T) {
	_, repo, ix := setup("x", "r(a)")
	tr := repo.Tree(0)
	u := NewEdgeUnion(ix)
	tok := u.Push(tr.Find("r"), tr.Find("a"))
	u.Pop(tok)
	defer func() {
		if recover() == nil {
			t.Errorf("double Pop should panic")
		}
	}()
	u.Pop(tok)
}

// Property: EdgeUnion size after pushing a set of pairs equals
// labeling.PathLengthSum over the same pairs, and popping everything in any
// order restores size 0.
func TestEdgeUnionMatchesPathLengthSum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := schema.NewBuilder("t")
		nodes := []*schema.Node{b.Root("n")}
		n := 2 + rng.Intn(40)
		for i := 1; i < n; i++ {
			nodes = append(nodes, b.Element(nodes[rng.Intn(len(nodes))], "n"))
		}
		repo := schema.NewRepository()
		repo.MustAdd(b.MustTree())
		ix := labeling.NewIndex(repo)
		all := repo.Nodes()

		u := NewEdgeUnion(ix)
		var pairs [][2]*schema.Node
		var tokens [][]int
		for k := 0; k < 1+rng.Intn(6); k++ {
			a := all[rng.Intn(len(all))]
			c := all[rng.Intn(len(all))]
			pairs = append(pairs, [2]*schema.Node{a, c})
			tokens = append(tokens, u.Push(a, c))
		}
		if u.Size() != ix.PathLengthSum(pairs) {
			return false
		}
		rng.Shuffle(len(tokens), func(i, j int) { tokens[i], tokens[j] = tokens[j], tokens[i] })
		for _, tok := range tokens {
			u.Pop(tok)
		}
		return u.Size() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: Δ is monotone in sims — raising any one element similarity never
// lowers the score — and Δpath is non-increasing in |Et|.
func TestScoreMonotonicity(t *testing.T) {
	personal, repo, ix := setup("a(b,c)", "a(b,x(c))")
	ev := NewEvaluator(Params{Alpha: 0.6, K: 3}, ix, personal)
	tr := repo.Tree(0)
	images := []*schema.Node{tr.Find("a"), tr.Find("b"), tr.Find("c")}
	f := func(s1, s2, s3, bump uint8) bool {
		sims := []float64{float64(s1%101) / 100, float64(s2%101) / 100, float64(s3%101) / 100}
		base := ev.Score(images, sims).Delta
		up := make([]float64, 3)
		copy(up, sims)
		i := int(bump) % 3
		up[i] = math.Min(1, up[i]+0.1)
		if ev.Score(images, up).Delta < base-1e-12 {
			return false
		}
		return ev.DeltaPath(3) <= ev.DeltaPath(2) && ev.DeltaPath(10) <= ev.DeltaPath(3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
