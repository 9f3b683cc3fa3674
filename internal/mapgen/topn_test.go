package mapgen

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"bellflower/internal/cluster"
	"bellflower/internal/labeling"
	"bellflower/internal/matcher"
	"bellflower/internal/objective"
	"bellflower/internal/schema"
)

func TestGenerateTopNMatchesTruncation(t *testing.T) {
	f := newFix(t, objective.DefaultParams(), 0.3,
		"book(title,author)",
		"lib(book(title,author),book(titel,autor),paper(title,author))",
		"store(dept(book(title,author(name))))")
	clusters := f.treeClusters()
	for _, n := range []int{1, 3, 5, 100} {
		full, _ := f.gen(Config{Threshold: 0.5}).GenerateTopNStop(clusters, 0, nil)
		top, _ := f.gen(Config{Threshold: 0.5}).GenerateTopNStop(clusters, n, nil)
		want := len(full)
		if want > n {
			want = n
		}
		if len(top) != want {
			t.Fatalf("n=%d: got %d mappings, want %d", n, len(top), want)
		}
		for i := range top {
			if math.Abs(top[i].Score.Delta-full[i].Score.Delta) > 1e-12 {
				t.Errorf("n=%d rank %d: Δ %v vs %v", n, i, top[i].Score.Delta, full[i].Score.Delta)
			}
		}
	}
}

func TestGenerateTopNPrunesMore(t *testing.T) {
	f := newFix(t, objective.DefaultParams(), 0.3,
		"book(title,author)",
		"lib(book(title,author),book(titel,autor),paper(title,author),bok(ttl,athr))",
		"store(dept(book(title,author(name))),book(title,author))")
	clusters := f.treeClusters()
	_, fullCtr := f.gen(Config{Threshold: 0.3}).GenerateTopNStop(clusters, 0, nil)
	_, topCtr := f.gen(Config{Threshold: 0.3}).GenerateTopNStop(clusters, 1, nil)
	if topCtr.PartialMappings >= fullCtr.PartialMappings {
		t.Errorf("top-1 search should prune harder: %d vs %d partials",
			topCtr.PartialMappings, fullCtr.PartialMappings)
	}
}

func TestGenerateTopNStop(t *testing.T) {
	f := newFix(t, objective.DefaultParams(), 0.3,
		"book(title,author)",
		"lib(book(title,author),book(titel,autor))",
		"store(dept(book(title,author(name))))")
	clusters := f.treeClusters()

	// An immediate stop searches no cluster.
	ms, ctr := f.gen(Config{Threshold: 0.5}).GenerateTopNStop(clusters, 3, func() bool { return true })
	if len(ms) != 0 || ctr.PartialMappings != 0 {
		t.Errorf("immediate stop searched anyway: %d mappings, %d partials", len(ms), ctr.PartialMappings)
	}

	// A stop after the first cluster abandons the rest but keeps what was
	// found so far. Best-first scheduling decides which cluster goes first,
	// so identify it from the results and compare against its full search.
	calls := 0
	ms, _ = f.gen(Config{Threshold: 0.5}).GenerateTopNStop(clusters, 100, func() bool {
		calls++
		return calls > 1
	})
	if len(ms) == 0 {
		t.Fatal("stop after first cluster kept nothing")
	}
	first := ms[0].ClusterID
	for _, m := range ms {
		if m.ClusterID != first {
			t.Fatalf("stop after first cluster returned clusters %d and %d", first, m.ClusterID)
		}
	}
	for _, cl := range clusters {
		if cl.ID != first {
			continue
		}
		full, _ := f.gen(Config{Threshold: 0.5}).GenerateTopNStop([]*cluster.Cluster{cl}, 0, nil)
		if len(ms) != len(full) {
			t.Errorf("stop after first cluster: %d mappings, want %d (cluster %d only)", len(ms), len(full), first)
		}
	}
}

func TestGenerateTopNZeroFallsBack(t *testing.T) {
	f := newFix(t, objective.DefaultParams(), 0.4,
		"book(title)", "lib(book(title))")
	clusters := f.treeClusters()
	all, _ := f.gen(Config{Threshold: 0.5}).GenerateTopNStop(clusters, 1000, nil)
	zero, _ := f.gen(Config{Threshold: 0.5}).GenerateTopNStop(clusters, 0, nil)
	if len(zero) != len(all) {
		t.Errorf("n=0 should return everything: %d vs %d", len(zero), len(all))
	}
}

// Property: the top-N Δ list equals the first N entries of the full ranked
// Δ list on random repositories.
func TestGenerateTopNProperty(t *testing.T) {
	words := []string{"book", "title", "author", "name", "data"}
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		repo := schema.NewRepository()
		for tr := 0; tr < 1+rng.Intn(3); tr++ {
			b := schema.NewBuilder("t")
			nodes := []*schema.Node{b.Root(words[rng.Intn(len(words))])}
			for i := 1; i < 3+rng.Intn(12); i++ {
				p := nodes[rng.Intn(len(nodes))]
				nodes = append(nodes, b.Element(p, words[rng.Intn(len(words))]))
			}
			repo.MustAdd(b.MustTree())
		}
		personal := schema.MustParseSpec("book(title,author)")
		ix := labeling.NewIndex(repo)
		cands := matcher.FindCandidates(personal, repo, matcher.NameMatcher{}, matcher.Config{MinSim: 0.4})
		ev := objective.NewEvaluator(objective.DefaultParams(), ix, personal)
		clusters := cluster.TreeClusters(ix, cands).Clusters
		n := 1 + int(nRaw)%8

		full, _ := New(Config{Threshold: 0.5}, ix, ev, cands).GenerateTopNStop(clusters, 0, nil)
		top, topCtr := New(Config{Threshold: 0.5}, ix, ev, cands).GenerateTopNStop(clusters, n, nil)
		want := len(full)
		if want > n {
			want = n
		}
		if len(top) != want {
			return false
		}
		for i := range top {
			if math.Abs(top[i].Score.Delta-full[i].Score.Delta) > 1e-12 {
				return false
			}
		}
		_, fullCtr := New(Config{Threshold: 0.5}, ix, ev, cands).GenerateTopNStop(clusters, 0, nil)
		return topCtr.PartialMappings <= fullCtr.PartialMappings
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestGenerateTopNWarmBytes pins what a warm top-N request allocates: its
// compact result and little more. The emission slab stays with the pooled
// state, and a displaced mapping's storage takes the next kept one, so a
// search carves at most N regions and a warm one carves them from memory it
// already has. A fresh 128-mapping slab per request alone would cost
// 128 × k × 16 bytes, 10 KiB at k = 5.
func TestGenerateTopNWarmBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	cases := benchCases()
	gens := make([]*Generator, len(cases))
	for i, c := range cases {
		gens[i] = New(Config{Threshold: 0.75}, c.ix, c.ev, c.cands)
	}
	run := func(i int) { gens[i%len(cases)].GenerateTopNStop(cases[i%len(cases)].clusters, 10, nil) }
	for i := 0; i < 2*len(cases); i++ {
		run(i)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 10 * 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run(i)
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > 4096 {
		t.Errorf("a warm top-10 request allocates %d bytes, want <= 4096", perOp)
	}
}
