package matcher

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"bellflower/internal/schema"
)

// flatPersonal builds a personal schema whose root's children carry names.
func flatPersonal(names ...string) *schema.Tree {
	b := schema.NewBuilder("personal")
	root := b.Root("proot")
	for _, n := range names {
		b.Element(root, n)
	}
	return b.MustTree()
}

// uniqueNameRepo builds a repository of trees×perTree distinct names, so the
// index has about as many keys as nodes and score rows are long.
func uniqueNameRepo(rng *rand.Rand, trees, perTree int) *schema.Repository {
	repo := schema.NewRepository()
	for tr := 0; tr < trees; tr++ {
		b := schema.NewBuilder(fmt.Sprintf("tree-%d", tr))
		root := b.Root(fmt.Sprintf("root%d", tr))
		for i := 0; i < perTree; i++ {
			b.TypedElement(root, fmt.Sprintf("%s%dq%d", kernelVocab[rng.Intn(len(kernelVocab))], tr, i),
				kernelTypes[rng.Intn(len(kernelTypes))])
		}
		repo.MustAdd(b.MustTree())
	}
	return repo
}

// TestMemoStreamEquivalenceProperty sends a request stream with recurring and
// fresh names through ONE NameIndex serving the full vocabulary and two
// disjoint view vocabularies, under every matcher family and MinSim. Every
// call — first sight or served from the memo, a row stored by another
// universe — must be bit-identical to the naive kernel over that call's
// universe.
func TestMemoStreamEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	repo := randomKernelRepo(rng, 8, 12)
	ni := NewNameIndex(repo)
	var even, odd []*schema.Node
	for i, tr := range repo.Trees() {
		if i%2 == 0 {
			even = append(even, tr.Nodes()...)
		} else {
			odd = append(odd, tr.Nodes()...)
		}
	}
	universes := map[string][]*schema.Node{"full": repo.Nodes(), "even": even, "odd": odd}
	vocabs := make(map[string]*Vocabulary)
	for name, nodes := range universes {
		vocabs[name] = ni.Vocabulary(nodes)
	}

	// Vocabulary-drawn schemas share names with each other (recurrence);
	// every other one also carries names no other request has.
	var stream []*schema.Tree
	for i := 0; i < 6; i++ {
		p := randomKernelPersonal(rng, 2+rng.Intn(8))
		if i%2 == 1 {
			p = flatPersonal(kernelVocab[rng.Intn(len(kernelVocab))], fmt.Sprintf("fresh%dName", i), fmt.Sprintf("titel%d", i))
		}
		stream = append(stream, p)
	}
	stream = append(stream, stream[0], stream[1])

	for name, m := range kernelMatchers() {
		for _, ms := range []float64{0, 0.3, 0.45, 0.7} {
			cfg := Config{MinSim: ms}
			for si, personal := range stream {
				for uname, nodes := range universes {
					want := FindCandidatesAmong(personal, nodes, m, cfg)
					got := vocabs[uname].FindCandidates(personal, m, cfg)
					assertSameCandidates(t, fmt.Sprintf("%s minSim=%v request %d universe %s", name, ms, si, uname), got, want)
				}
			}
		}
	}
	ks := ni.KernelStats()
	if ks.MemoHits == 0 || ks.MemoMisses == 0 || ks.NaiveFallbacks != 0 {
		t.Fatalf("stream should both hit and miss the memo and never fall back: %+v", ks)
	}
}

// TestMatchInfo: the per-call memo report — every node misses on a fresh
// index and hits on the repeat; a hit adds to none of the scoring counters.
func TestMatchInfo(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	repo := randomKernelRepo(rng, 4, 10)
	ni := NewNameIndex(repo)
	vocab := ni.Vocabulary(repo.Nodes())
	personal := flatPersonal("author", "title", "isbnn")
	cfg := Config{MinSim: 0.45}
	_, info := vocab.Match(personal, NameMatcher{}, cfg)
	if info != (MatchInfo{MemoMisses: personal.Len()}) {
		t.Fatalf("first call: %+v, want %d misses", info, personal.Len())
	}
	before := ni.KernelStats()
	_, info = vocab.Match(personal, NameMatcher{}, cfg)
	if info != (MatchInfo{MemoHits: personal.Len()}) {
		t.Fatalf("repeat: %+v, want %d hits", info, personal.Len())
	}
	after := ni.KernelStats()
	if after.SimCalls != before.SimCalls || after.SavedCalls != before.SavedCalls || after.PruneHits != before.PruneHits {
		t.Fatalf("a memo hit moved the scoring counters: %+v -> %+v", before, after)
	}
	if after.MemoHits-before.MemoHits != int64(personal.Len()) || after.MemoBytes == 0 {
		t.Fatalf("memo counters after the repeat: %+v", after)
	}
	// A different MinSim or matcher value is a different row.
	if _, info = vocab.Match(personal, NameMatcher{}, Config{MinSim: 0.3}); info.MemoHits != 0 {
		t.Fatalf("MinSim 0.3 served from MinSim 0.45 rows: %+v", info)
	}
	if _, info = vocab.Match(personal, NameMatcher{TokenAware: true}, cfg); info.MemoHits != 0 {
		t.Fatalf("token-aware matcher served from plain fuzzy rows: %+v", info)
	}
}

// TestMemoConcurrentEviction runs many goroutines with overlapping and
// unique names against one index, with enough distinct long rows to turn the
// memo's generations over mid-run, and checks every result against the naive
// kernel. Run with -race.
func TestMemoConcurrentEviction(t *testing.T) {
	repo := uniqueNameRepo(rand.New(rand.NewSource(5)), 3, 120)
	ni := NewNameIndex(repo)
	vocab := ni.Vocabulary(repo.Nodes())
	m, cfg := NameMatcher{TokenAware: true}, Config{} // MinSim 0, unpruned: rows hold nearly every key
	const workers, calls = 6, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for c := 0; c < calls; c++ {
				names := []string{"author", kernelVocab[rng.Intn(len(kernelVocab))]} // shared across goroutines
				for i := 0; i < 6; i++ {
					names = append(names, fmt.Sprintf("w%dc%dname%d", w, c, i))
				}
				personal := flatPersonal(names...)
				got := vocab.FindCandidates(personal, m, cfg)
				want := FindCandidatesAmong(personal, repo.Nodes(), m, cfg)
				if len(got.Sets) != len(want.Sets) {
					t.Errorf("worker %d call %d: %d sets, want %d", w, c, len(got.Sets), len(want.Sets))
					return
				}
				for i := range want.Sets {
					g, wnt := got.Sets[i].Elems, want.Sets[i].Elems
					if len(g) != len(wnt) {
						t.Errorf("worker %d call %d set %d: %d candidates, want %d", w, c, i, len(g), len(wnt))
						return
					}
					for j := range wnt {
						if g[j] != wnt[j] {
							t.Errorf("worker %d call %d set %d elem %d differs", w, c, i, j)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	ni.memo.mu.Lock()
	turned := ni.memo.old != nil
	ni.memo.mu.Unlock()
	ks := ni.KernelStats()
	if !turned || ks.MemoHits == 0 || ks.MemoBytes > 2*memoGenBytes {
		t.Fatalf("generations turned over: %v, stats %+v (want eviction mid-run, hits, bytes <= %d)", turned, ks, 2*memoGenBytes)
	}
}

// TestMemoBound: ten times the memo's capacity in one-off names never takes
// it past its constant, and a name sent with every request keeps hitting —
// the two-generation swap does not let unique misspellings flush it.
func TestMemoBound(t *testing.T) {
	repo := uniqueNameRepo(rand.New(rand.NewSource(9)), 4, 150)
	ni := NewNameIndex(repo)
	vocab := ni.Vocabulary(repo.Nodes())
	base := ni.MemoryBytes()
	m, cfg := NameMatcher{TokenAware: true}, Config{}
	var stored int64 // row bytes offered to the memo
	calls := 0
	for ; stored < 10*2*memoGenBytes; calls++ {
		personal := flatPersonal("author", fmt.Sprintf("onceOnly%d", calls), fmt.Sprintf("%dmisspelt", calls))
		c, info := vocab.Match(personal, m, cfg)
		for i := 1; i < len(c.Sets); i++ {
			// Every candidate's key is one row entry of at least 16 bytes;
			// names are unique per node here, so candidates ≈ row entries.
			stored += 16 * int64(len(c.Sets[i].Elems))
		}
		if calls > 0 && info.MemoHits != 2 { // proot and author recur; the other two are new
			t.Fatalf("call %d: %+v, want the two recurring names to hit", calls, info)
		}
		if ks := ni.KernelStats(); ks.MemoBytes > 2*memoGenBytes || ni.MemoryBytes() != base+ks.MemoBytes {
			t.Fatalf("call %d: memo bytes %d (cap %d), index bytes %d (base %d)", calls, ks.MemoBytes, 2*memoGenBytes, ni.MemoryBytes(), base)
		}
	}
	if ks := ni.KernelStats(); ks.MemoHits != 2*int64(calls-1) {
		t.Fatalf("%d calls: %+v, want %d hits", calls, ks, 2*(calls-1))
	}
}

// sliceLocal is a foreign property-local matcher whose dynamic type is not
// hashable: using it as (part of) a map key would panic at run time.
type sliceLocal struct{ bonus []float64 }

func (sliceLocal) Name() string { return "slice-local" }
func (s sliceLocal) Similarity(p, r *schema.Node) float64 {
	if p.Name == r.Name {
		return 1
	}
	return s.bonus[len(r.Name)%len(s.bonus)]
}
func (sliceLocal) PropertyLocal() bool { return true }

// TestMemoSkipsUnkeyableMatchers: matchers whose value does not identify
// their scoring function — an unhashable foreign one, a per-call *Combined,
// a *SynonymMatcher — go through row → emit without touching the memo.
func TestMemoSkipsUnkeyableMatchers(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	repo := randomKernelRepo(rng, 5, 12)
	ni := NewNameIndex(repo)
	vocab := ni.Vocabulary(repo.Nodes())
	personal := randomKernelPersonal(rng, 6)
	cfg := Config{MinSim: 0.3}
	perCall := func() Matcher {
		return NewCombined(Weighted{Matcher: NameMatcher{}, Weight: 0.7}, Weighted{Matcher: TypeMatcher{}, Weight: 0.3})
	}
	for round := 0; round < 3; round++ {
		for _, m := range []Matcher{sliceLocal{bonus: []float64{0.2, 0.5, 0.8}}, perCall(), DefaultSynonyms()} {
			want := FindCandidatesAmong(personal, repo.Nodes(), m, cfg)
			got, info := vocab.Match(personal, m, cfg)
			assertSameCandidates(t, m.Name(), got, want)
			if info != (MatchInfo{}) {
				t.Fatalf("%s: memo consulted: %+v", m.Name(), info)
			}
		}
	}
	if ks := ni.KernelStats(); ks.MemoBytes != 0 || ks.MemoHits+ks.MemoMisses != 0 || ks.NaiveFallbacks != 0 || ks.SimCalls == 0 {
		t.Fatalf("unkeyable matchers must run keyed and leave the memo empty: %+v", ks)
	}
}

// TestEmitOrderOnUnsortedUniverse: a view whose node slice is not
// ID-ascending still yields (sim desc, node ID asc) — for short tie runs
// (merged in place) and for the long ones of a few-valued matcher (sorted).
func TestEmitOrderOnUnsortedUniverse(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	repo := randomKernelRepo(rng, 10, 14)
	ni := NewNameIndex(repo)
	var nodes []*schema.Node
	for _, n := range repo.Nodes() {
		if n.ID%3 != 0 {
			nodes = append(nodes, n)
		}
	}
	rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
	vocab := ni.Vocabulary(nodes)
	personal := randomKernelPersonal(rng, 7)
	for name, m := range kernelMatchers() {
		cfg := Config{MinSim: 0.3}
		want := FindCandidatesAmong(personal, nodes, m, cfg)
		for _, pass := range []string{"miss", "hit"} {
			got := vocab.FindCandidates(personal, m, cfg)
			assertSameCandidates(t, fmt.Sprintf("%s %s", name, pass), got, want)
			for i := range got.Sets {
				for j := 1; j < len(got.Sets[i].Elems); j++ {
					if candidateCompare(got.Sets[i].Elems[j-1], got.Sets[i].Elems[j]) >= 0 {
						t.Fatalf("%s: set %d out of order at %d", name, i, j)
					}
				}
			}
		}
	}
}
