package matcher

import (
	"fmt"
	"math/rand"
	"testing"

	"bellflower/internal/schema"
	"bellflower/internal/strsim"
)

var kernelVocab = []string{
	"author", "authorName", "name_of_author", "writer", "title", "bookTitle",
	"isbn", "ISBN_13", "price", "priceAmount", "year", "publicationYear",
	"publisher", "address", "zip.code", "e-mail", "phone", "café", "Título",
	"person", "contact", "XMLName", "shelf", "label", "x", "",
}

var kernelTypes = []string{"", "string", "int", "integer", "decimal", "date", "boolean", "token", "weird"}

// randomKernelRepo builds a repository with a duplication-heavy vocabulary:
// names and types repeat across trees, exactly the shape vocabulary dedup
// exploits.
func randomKernelRepo(rng *rand.Rand, trees, meanSize int) *schema.Repository {
	repo := schema.NewRepository()
	pick := func() string { return kernelVocab[rng.Intn(len(kernelVocab))] }
	pickType := func() string { return kernelTypes[rng.Intn(len(kernelTypes))] }
	for t := 0; t < trees; t++ {
		b := schema.NewBuilder(fmt.Sprintf("tree-%d", t))
		root := b.Root("root" + pick())
		nodes := []*schema.Node{root}
		size := 1 + rng.Intn(2*meanSize)
		for i := 0; i < size; i++ {
			parent := nodes[rng.Intn(len(nodes))]
			if rng.Intn(4) == 0 {
				b.TypedAttribute(parent, pick(), pickType())
			} else {
				// Only elements may parent further nodes.
				nodes = append(nodes, b.TypedElement(parent, pick(), pickType()))
			}
		}
		repo.MustAdd(b.MustTree())
	}
	return repo
}

func randomKernelPersonal(rng *rand.Rand, size int) *schema.Tree {
	b := schema.NewBuilder("personal")
	root := b.Root(kernelVocab[rng.Intn(len(kernelVocab))] + "Root")
	nodes := []*schema.Node{root}
	for i := 1; i < size; i++ {
		parent := nodes[rng.Intn(len(nodes))]
		n := b.TypedElement(parent, kernelVocab[rng.Intn(len(kernelVocab))], kernelTypes[rng.Intn(len(kernelTypes))])
		nodes = append(nodes, n)
	}
	return b.MustTree()
}

// kernelMatchers returns the matcher configurations the equivalence property
// runs over: every built-in metric, token awareness, synonym, datatype and
// weighted combinations.
func kernelMatchers() map[string]Matcher {
	return map[string]Matcher{
		"fuzzy":       NameMatcher{},
		"token-aware": NameMatcher{TokenAware: true},
		"jaro":        NameMatcher{Metric: strsim.MetricJaroWinkler},
		"trigram":     NameMatcher{Metric: strsim.MetricTrigramJaccard},
		"bigram":      NameMatcher{Metric: strsim.MetricBigramCosine},
		"synonym":     DefaultSynonyms(),
		"datatype":    TypeMatcher{},
		"combined": NewCombined(
			Weighted{Matcher: NameMatcher{TokenAware: true}, Weight: 0.6},
			Weighted{Matcher: DefaultSynonyms(), Weight: 0.25},
			Weighted{Matcher: TypeMatcher{}, Weight: 0.15},
		),
	}
}

// assertSameCandidates requires got to be bit-identical to want: same
// personal nodes, same candidate nodes in the same order, and bitwise-equal
// similarity scores.
func assertSameCandidates(t *testing.T, label string, got, want *Candidates) {
	t.Helper()
	if len(got.Sets) != len(want.Sets) {
		t.Fatalf("%s: %d sets, want %d", label, len(got.Sets), len(want.Sets))
	}
	for i := range want.Sets {
		g, w := &got.Sets[i], &want.Sets[i]
		if g.Personal != w.Personal {
			t.Fatalf("%s: set %d bound to wrong personal node", label, i)
		}
		if len(g.Elems) != len(w.Elems) {
			t.Fatalf("%s: set %d has %d candidates, want %d", label, i, len(g.Elems), len(w.Elems))
		}
		for j := range w.Elems {
			if g.Elems[j].Node != w.Elems[j].Node {
				t.Fatalf("%s: set %d elem %d is node %d, want node %d",
					label, i, j, g.Elems[j].Node.ID, w.Elems[j].Node.ID)
			}
			if g.Elems[j].Sim != w.Elems[j].Sim {
				t.Fatalf("%s: set %d elem %d sim %v, want %v (node %d)",
					label, i, j, g.Elems[j].Sim, w.Elems[j].Sim, w.Elems[j].Node.ID)
			}
		}
	}
}

// TestKernelEquivalenceProperty pins the keyed kernel score- and
// order-identical to the naive reference across randomized repositories,
// every matcher family, and a range of MinSim.
func TestKernelEquivalenceProperty(t *testing.T) {
	matchers := kernelMatchers()
	minSims := []float64{0, 0.3, 0.45, 0.7}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		repo := randomKernelRepo(rng, 2+rng.Intn(6), 12)
		ni := NewNameIndex(repo)
		vocab := ni.Vocabulary(repo.Nodes())
		personal := randomKernelPersonal(rng, 2+rng.Intn(10))
		for name, m := range matchers {
			for _, ms := range minSims {
				cfg := Config{MinSim: ms}
				want := FindCandidatesAmong(personal, repo.Nodes(), m, cfg)
				got := vocab.FindCandidates(personal, m, cfg)
				label := fmt.Sprintf("seed %d %s minSim=%v", seed, name, ms)
				assertSameCandidates(t, label, got, want)
			}
		}
	}
}

// TestKernelEquivalenceParallel forces the parallel worker path (personal ×
// vocab above the threshold) and checks it stays identical to the naive
// kernel.
func TestKernelEquivalenceParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Unique names defeat dedup, so |vocab| is large enough that
	// personal × vocab crosses the parallel threshold.
	repo := schema.NewRepository()
	for tr := 0; tr < 4; tr++ {
		b := schema.NewBuilder(fmt.Sprintf("tree-%d", tr))
		root := b.Root(fmt.Sprintf("root%d", tr))
		for i := 0; i < 150; i++ {
			b.TypedElement(root, fmt.Sprintf("%s%dq%d", kernelVocab[rng.Intn(len(kernelVocab))], tr, i),
				kernelTypes[rng.Intn(len(kernelTypes))])
		}
		repo.MustAdd(b.MustTree())
	}
	ni := NewNameIndex(repo)
	vocab := ni.Vocabulary(repo.Nodes())
	if len(ni.keys) < 500 {
		t.Fatalf("expected a large vocabulary, got %d keys", len(ni.keys))
	}
	personal := randomKernelPersonal(rng, 16)
	if personal.Len()*len(ni.keys) < parallelThreshold {
		t.Fatalf("test repo too small to exercise the parallel path")
	}
	for _, m := range []Matcher{NameMatcher{}, NameMatcher{TokenAware: true}} {
		cfg := Config{MinSim: 0.45}
		want := FindCandidatesAmong(personal, repo.Nodes(), m, cfg)
		got := vocab.FindCandidates(personal, m, cfg)
		assertSameCandidates(t, "parallel "+m.Name(), got, want)
	}
}

// TestKernelFallbacks checks that non-local matchers and foreign universes
// take the naive path and are counted.
func TestKernelFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	repo := randomKernelRepo(rng, 3, 10)
	ni := NewNameIndex(repo)
	vocab := ni.Vocabulary(repo.Nodes())
	personal := randomKernelPersonal(rng, 4)
	cfg := Config{MinSim: 0.45}

	// Structure matchers read tree context: must fall back, results equal.
	sm := &PathContextMatcher{}
	want := FindCandidatesAmong(personal, repo.Nodes(), sm, cfg)
	got := vocab.FindCandidates(personal, sm, cfg)
	assertSameCandidates(t, "structure fallback", got, want)
	if ni.KernelStats().NaiveFallbacks == 0 {
		t.Fatalf("structure matcher fallback not counted")
	}

	// A universe from a different repository must be naive-only.
	other := randomKernelRepo(rng, 2, 8)
	foreign := ni.Vocabulary(other.Nodes())
	if foreign.ni != nil {
		t.Fatalf("foreign universe should yield a naive-only vocabulary")
	}
	want = FindCandidatesAmong(personal, other.Nodes(), NameMatcher{}, cfg)
	got = foreign.FindCandidates(personal, NameMatcher{}, cfg)
	assertSameCandidates(t, "foreign universe", got, want)
}

// markedLocal is an external matcher that opts into dedup via the
// PropertyLocal marker.
type markedLocal struct{}

func (markedLocal) Name() string { return "marked" }
func (markedLocal) Similarity(p, r *schema.Node) float64 {
	if len(p.Name) == len(r.Name) {
		return 0.9
	}
	return 0.1
}
func (markedLocal) PropertyLocal() bool { return true }

func TestKernelPropertyLocalMarker(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	repo := randomKernelRepo(rng, 3, 10)
	ni := NewNameIndex(repo)
	vocab := ni.Vocabulary(repo.Nodes())
	personal := randomKernelPersonal(rng, 5)
	cfg := Config{MinSim: 0.45}
	before := ni.KernelStats()
	want := FindCandidatesAmong(personal, repo.Nodes(), markedLocal{}, cfg)
	got := vocab.FindCandidates(personal, markedLocal{}, cfg)
	assertSameCandidates(t, "marked local", got, want)
	after := ni.KernelStats()
	if after.NaiveFallbacks != before.NaiveFallbacks {
		t.Fatalf("marked-local matcher should not fall back")
	}
	if after.SimCalls == before.SimCalls {
		t.Fatalf("marked-local matcher should go through the keyed loop")
	}
}

// TestKernelStatsCounters sanity-checks the effectiveness counters: dedup
// savings and prune hits accumulate, and the distinct ratio reflects the
// vocabulary.
func TestKernelStatsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	repo := randomKernelRepo(rng, 6, 20)
	ni := NewNameIndex(repo)
	vocab := ni.Vocabulary(repo.Nodes())
	if len(ni.keys) >= len(ni.keyOf) {
		t.Fatalf("duplication-heavy repo should have fewer keys (%d) than nodes (%d)", len(ni.keys), len(ni.keyOf))
	}
	if r := ni.DistinctRatio(); r <= 0 || r >= 1 {
		t.Fatalf("distinct ratio %v outside (0,1)", r)
	}
	personal := randomKernelPersonal(rng, 8)
	vocab.FindCandidates(personal, NameMatcher{}, Config{MinSim: 0.45})
	st := ni.KernelStats()
	if st.SavedCalls == 0 {
		t.Fatalf("vocabulary dedup saved no calls on a duplication-heavy repo")
	}
	if st.PruneHits == 0 {
		t.Fatalf("length-bound pruning never fired at MinSim 0.45")
	}
	if st.SimCalls == 0 {
		t.Fatalf("no similarity calls recorded")
	}
	if ni.MemoryBytes() <= 0 {
		t.Fatalf("MemoryBytes() = %d, want > 0", ni.MemoryBytes())
	}
}

// TestKernelWarmAllocs pins the per-similarity-call allocation count of the
// warm keyed loop: scoring one personal node against the whole vocabulary
// must not allocate per key (the per-node budget covers preparing the
// personal name and the result slice).
func TestKernelWarmAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	repo := randomKernelRepo(rng, 6, 20)
	ni := NewNameIndex(repo)
	ps := &personalScratch{node: repo.Node(0)}
	ps.prep = strsim.Prepare("authorName")
	ps.synFold = fold("authorName")
	ps.typFold = fold("string")
	for name, m := range kernelMatchers() {
		score := compileScore(m)
		// Warm the scorer scratch.
		for ki := range ni.keys {
			score(ps, &ni.keys[ki])
		}
		n := testing.AllocsPerRun(50, func() {
			for ki := range ni.keys {
				score(ps, &ni.keys[ki])
			}
		})
		if n != 0 {
			t.Errorf("%s: warm keyed scoring allocates %v times per vocabulary sweep, want 0", name, n)
		}
	}
}

// FuzzKernelEquivalence builds a tiny repository and personal schema from
// fuzz-provided names and checks keyed == naive for the default and
// token-aware matchers.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add("author;title;isbn", "authorName;price", uint8(45))
	f.Add("a;b;c;a;b", "a", uint8(0))
	f.Add("café;cafe;CAFE", "café", uint8(70))
	f.Fuzz(func(t *testing.T, repoNames, personalNames string, minPct uint8) {
		split := func(s string) []string {
			var out []string
			start := 0
			for i := 0; i <= len(s); i++ {
				if i == len(s) || s[i] == ';' {
					if i > start {
						out = append(out, s[start:i])
					}
					start = i + 1
				}
			}
			return out
		}
		rn, pn := split(repoNames), split(personalNames)
		if len(rn) == 0 || len(pn) == 0 || len(rn) > 24 || len(pn) > 8 {
			return
		}
		for _, n := range append(append([]string{}, rn...), pn...) {
			if len(n) > 32 {
				return
			}
		}
		repo := schema.NewRepository()
		b := schema.NewBuilder("t")
		root := b.Root("root")
		for _, n := range rn {
			b.Element(root, n)
		}
		repo.MustAdd(b.MustTree())
		pb := schema.NewBuilder("p")
		proot := pb.Root("proot")
		for _, n := range pn {
			pb.Element(proot, n)
		}
		personal := pb.MustTree()

		ni := NewNameIndex(repo)
		vocab := ni.Vocabulary(repo.Nodes())
		cfg := Config{MinSim: float64(minPct%101) / 100}
		for _, m := range []Matcher{NameMatcher{}, NameMatcher{TokenAware: true}} {
			want := FindCandidatesAmong(personal, repo.Nodes(), m, cfg)
			// Twice: the first call scores and stores the rows, the second
			// is served from the memo.
			for _, pass := range []string{"miss", "hit"} {
				got := vocab.FindCandidates(personal, m, cfg)
				assertSameCandidates(t, m.Name()+" "+pass, got, want)
			}
		}
		if ks := ni.KernelStats(); ks.MemoHits == 0 {
			t.Fatalf("second pass never hit the row memo: %+v", ks)
		}
	})
}

// benchCandidates keeps the benchmarked calls' results live.
var benchCandidates *Candidates

// BenchmarkFindCandidates is the element-matching head-to-head over one
// duplication-heavy repository of about 5,000 nodes: the keyed kernel the
// serving path runs (Vocabulary.FindCandidates) scoring every row (keyed/miss:
// a fresh index per iteration, built off the clock), the same kernel served
// from the row memo (keyed/hit), and the naive reference loop both are pinned
// to (FindCandidatesAmong). Quote keyed/miss as the kernel figure.
func BenchmarkFindCandidates(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	repo := randomKernelRepo(rng, 400, 12)
	personal := randomKernelPersonal(rng, 5)
	cfg := Config{MinSim: 0.45}
	b.Run("keyed/miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			vocab := NewNameIndex(repo).Vocabulary(repo.Nodes())
			b.StartTimer()
			benchCandidates = vocab.FindCandidates(personal, NameMatcher{}, cfg)
		}
	})
	b.Run("keyed/hit", func(b *testing.B) {
		vocab := NewNameIndex(repo).Vocabulary(repo.Nodes())
		vocab.FindCandidates(personal, NameMatcher{}, cfg)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchCandidates = vocab.FindCandidates(personal, NameMatcher{}, cfg)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchCandidates = FindCandidatesAmong(personal, repo.Nodes(), NameMatcher{}, cfg)
		}
	})
}
