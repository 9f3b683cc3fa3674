package serve

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"bellflower/internal/labeling"
	"bellflower/internal/matcher"
	"bellflower/internal/pipeline"
	"bellflower/internal/repogen"
	"bellflower/internal/schema"
)

// paperScale is the paper-scale serving fixture: the 9,759-node synthetic
// repository, its labelling index, and a fixed list of 512 distinct personal
// schemas of 3–7 nodes with pairwise-distinct names, cut as connected
// subtrees from that repository (the way internal/cluster's
// benchKMeansInput builds its requests).
var paperScale = sync.OnceValues(func() (*labeling.Index, []*schema.Tree) {
	repo := repogen.MustGenerate(repogen.DefaultConfig())
	nodes := repo.Nodes()
	rng := rand.New(rand.NewSource(42))
	seen := map[string]bool{}
	var personals []*schema.Tree
	for len(personals) < 512 {
		p := cutSubtree(rng, nodes[rng.Intn(len(nodes))], 3+len(personals)%5)
		if p == nil || seen[p.String()] {
			continue
		}
		seen[p.String()] = true
		personals = append(personals, p)
	}
	return labeling.NewIndex(repo), personals
})

// cutSubtree grows a connected k-node subtree downwards from root, picking
// among the children of already chosen nodes whose names are still free;
// nil when the neighbourhood runs out first.
func cutSubtree(rng *rand.Rand, root *schema.Node, k int) *schema.Tree {
	b := schema.NewBuilder("personal")
	built := map[*schema.Node]*schema.Node{root: b.Root(root.Name)}
	names := map[string]bool{root.Name: true}
	frontier := append([]*schema.Node(nil), root.Children()...)
	for b.Size() < k {
		live := frontier[:0]
		for _, c := range frontier {
			if !names[c.Name] {
				live = append(live, c)
			}
		}
		if frontier = live; len(frontier) == 0 {
			return nil
		}
		i := rng.Intn(len(frontier))
		pick := frontier[i]
		frontier = append(frontier[:i], frontier[i+1:]...)
		built[pick] = b.Element(built[pick.Parent()], pick.Name)
		names[pick.Name] = true
		frontier = append(frontier, pick.Children()...)
	}
	t, err := b.Tree()
	if err != nil {
		return nil
	}
	return t
}

// coldOptions are the cold-topn workload's options: the serving defaults,
// ten best mappings.
func coldOptions() pipeline.Options {
	opts := pipeline.DefaultOptions()
	opts.TopN = 10
	return opts
}

// reportSummary is everything a report states except its stage timings.
func reportSummary(rep *pipeline.Report) string {
	return fmt.Sprintf("elements %d clusters %d useful %d iterations %d sizes %v counters %+v first %d\n%s",
		rep.MappingElements, rep.Clusters, rep.UsefulClusters, rep.Iterations,
		rep.ClusterSizes, rep.Counters, rep.FirstGoodAfter, rankKeys(rep))
}

// TestPooledStorageReuse serves a fixed list of paper-scale requests through
// a Service with its cache on, one with it off, and a two-shard Router —
// twice in a row, then from four goroutines at once — and checks every
// report against a fresh runner's: a run that handed its candidate sets or
// clusters back while something still read them, or a pooled buffer shared
// by two live runs, changes some report here.
func TestPooledStorageReuse(t *testing.T) {
	ix, personals := paperScale()
	personals = personals[:12]
	repo := ix.Repository()
	opts := coldOptions()
	want := make([]string, len(personals))
	for i, p := range personals {
		rep, err := pipeline.NewRunnerFromIndexes(ix, matcher.NewNameIndex(repo)).Run(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = reportSummary(rep)
	}

	backends := []struct {
		name string
		b    Backend
	}{
		{"service-cached", New(pipeline.NewRunnerFromIndexes(ix, matcher.NewNameIndex(repo)), Config{})},
		{"service-uncached", New(pipeline.NewRunnerFromIndexes(ix, matcher.NewNameIndex(repo)), Config{CacheSize: -1})},
		{"router", NewRouterFromRepository(repo, 2, Config{})},
	}
	for _, be := range backends {
		defer be.b.Close()
	}
	check := func(name string, i int, rep *pipeline.Report, err error) error {
		if err != nil {
			return fmt.Errorf("%s: request %d: %v", name, i, err)
		}
		if got := reportSummary(rep); got != want[i] {
			return fmt.Errorf("%s: request %d (%s):\n got %s\nwant %s", name, i, personals[i], got, want[i])
		}
		return nil
	}
	for _, be := range backends {
		var reps []*pipeline.Report
		for pass := 0; pass < 2; pass++ {
			for i, p := range personals {
				rep, err := be.b.Match(context.Background(), p, opts)
				if err := check(be.name, i, rep, err); err != nil {
					t.Fatal(err)
				}
				reps = append(reps, rep)
			}
		}
		// Reports read earlier must not have changed under later runs.
		for k, rep := range reps {
			if err := check(be.name+" (re-read)", k%len(personals), rep, nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 4*len(backends))
	for _, be := range backends {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range personals {
					i := (k + 3*g) % len(personals)
					rep, err := be.b.Match(context.Background(), personals[i], opts)
					if err := check(be.name+" (concurrent)", i, rep, err); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCachedRenderingAfterPoolReuse checks that a cached report and its
// cached rendering own their memory: after 200 later runs have reused every
// pool, the cached bytes, and a fresh rendering of the cached report, are
// byte-identical to the first response.
func TestCachedRenderingAfterPoolReuse(t *testing.T) {
	ix, personals := paperScale()
	s := New(pipeline.NewRunnerFromIndexes(ix, matcher.NewNameIndex(ix.Repository())), Config{})
	defer s.Close()
	opts := coldOptions()
	ctx := context.Background()
	first, err := s.MatchJSON(ctx, personals[0], opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(first)
	for _, p := range personals[1:201] {
		if _, err := s.MatchJSON(ctx, p, opts, nil); err != nil {
			t.Fatal(err)
		}
	}
	again, err := s.MatchJSON(ctx, personals[0], opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hits := s.Stats().CacheHits; hits != 1 {
		t.Fatalf("cache hits = %d, want 1 (the repeat)", hits)
	}
	if !bytes.Equal(again, want) || !bytes.Equal(first, want) {
		t.Fatalf("cached rendering changed after later runs:\n got %s\nwant %s", again, want)
	}
	rep, err := s.Match(ctx, personals[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendReportJSON(nil, personals[0], rep); !bytes.Equal(got, want) {
		t.Fatalf("cached report renders differently after later runs:\n got %s\nwant %s", got, want)
	}
}

// TestColdRequestAllocationBudget pins what a cold in-process request
// allocates: Service.MatchJSON with the cache off over requests 64–511 of
// the paper-scale list, after the first 64 warmed the pools and the row
// memo. What a request keeps is its report and one exact-size rendering;
// candidate sets, clusters and render scratch are reused.
func TestColdRequestAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	ix, personals := paperScale()
	s := New(pipeline.NewRunnerFromIndexes(ix, matcher.NewNameIndex(ix.Repository())), Config{Workers: 1, CacheSize: -1})
	defer s.Close()
	opts := coldOptions()
	ctx := context.Background()
	for _, p := range personals[:64] {
		if _, err := s.MatchJSON(ctx, p, opts, nil); err != nil {
			t.Fatal(err)
		}
	}
	measured := personals[64:]
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, p := range measured {
		if _, err := s.MatchJSON(ctx, p, opts, nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(len(measured))
	kb := float64(after.TotalAlloc-before.TotalAlloc) / n / 1024
	allocs := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.1f KB and %.1f allocations per cold request; %d collections over %d requests",
		kb, allocs, after.NumGC-before.NumGC, len(measured))
	const maxKB, maxAllocs = 35, 70
	if kb > maxKB || allocs > maxAllocs {
		t.Errorf("a cold request allocates %.1f KB in %.1f allocations, budget %d KB and %d", kb, allocs, maxKB, maxAllocs)
	}
}
