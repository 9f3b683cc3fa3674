package shardrpc

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"bellflower/internal/labeling"
	"bellflower/internal/matcher"
	"bellflower/internal/pipeline"
	"bellflower/internal/repogen"
	"bellflower/internal/schema"
	"bellflower/internal/serve"
)

// remoteRouter is a router in this process over n one-replica remote
// shards, each hosted over httptest by a ShardServer with its own
// repository copy. restart(i) replaces shard i's server with a fresh one —
// same address, empty caches — as a shard process restart would.
type remoteRouter struct {
	*serve.Router
	hosts   []atomic.Pointer[ShardServer]
	restart func(i int)
}

func newRemoteRouter(tb testing.TB, repo func() *schema.Repository, n int) *remoteRouter {
	tb.Helper()
	host := func(i int) *ShardServer {
		views := serve.PartitionRepositoryViews(labeling.NewIndex(repo()), n, serve.PartitionClustered)
		svc := serve.New(viewRunner(views[i]), serve.Config{Workers: 2})
		return NewShardServer(svc, views[i], ViewDescriptor(views[i], i, n, serve.PartitionClustered))
	}
	rr := &remoteRouter{hosts: make([]atomic.Pointer[ShardServer], n)}
	rr.restart = func(i int) {
		if old := rr.hosts[i].Swap(host(i)); old != nil {
			old.Close()
		}
	}
	ix := labeling.NewIndex(repo())
	views := serve.PartitionRepositoryViews(ix, n, serve.PartitionClustered)
	backends := make([]serve.ShardBackend, n)
	for i := range backends {
		rr.restart(i)
		cur := &rr.hosts[i]
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/shard/match", func(w http.ResponseWriter, r *http.Request) { cur.Load().HandleMatch(w, r) })
		mux.HandleFunc("/v1/shard/stats", func(w http.ResponseWriter, r *http.Request) { cur.Load().HandleStats(w, r) })
		srv := httptest.NewServer(mux)
		tb.Cleanup(func() {
			srv.Close()
			cur.Load().Close()
		})
		rs := NewRemoteShard(srv.URL, views[i], ViewDescriptor(views[i], i, n, serve.PartitionClustered), RemoteShardConfig{})
		backends[i] = NewReplicaSet([]*RemoteShard{rs}, serve.HealthConfig{})
	}
	rr.Router = serve.NewRouterWithShardBackends(ix, views, backends, serve.Config{})
	tb.Cleanup(rr.Close)
	return rr
}

// TestRouterResendsEntryProjectionAfter428: a shard that lost a pre-pass
// entry's projection answers the slim repeat 428; the router resends the
// full body built from the entry's retained projection, without a second
// pre-pass, and the shard's digest check accepts and caches it.
func TestRouterResendsEntryProjectionAfter428(t *testing.T) {
	rr := newRemoteRouter(t, func() *schema.Repository { return testRepo(t, 400, 17) }, 2)
	opts := pipeline.DefaultOptions()
	opts.MinSim = 0.35
	match := func() *pipeline.Report {
		t.Helper()
		rep, err := rr.Match(context.Background(), schema.MustParseSpec("address(name,email)"), opts)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	first := match()
	for i := range rr.hosts {
		if st := rr.hosts[i].Load().Stats(); st.ProjectionCacheHits != 0 {
			t.Fatalf("shard %d: a first request hit the projection cache", i)
		}
	}
	assertReportsEquivalent(t, "slim repeat", match(), first)
	for i := range rr.hosts {
		if st := rr.hosts[i].Load().Stats(); st.ProjectionCacheHits != 1 {
			t.Fatalf("shard %d: slim repeat: projection hits %d, want 1", i, st.ProjectionCacheHits)
		}
	}

	rr.restart(0)
	assertReportsEquivalent(t, "after the 428 turn", match(), first)
	st := rr.hosts[0].Load().Stats()
	if st.ProjectionCacheMisses != 1 || st.ProjectionCacheHits != 0 || st.Errors != 0 {
		t.Fatalf("restarted shard: projection misses %d hits %d errors %d, want the one bounced slim request",
			st.ProjectionCacheMisses, st.ProjectionCacheHits, st.Errors)
	}
	match()
	if st := rr.hosts[0].Load().Stats(); st.ProjectionCacheHits != 1 {
		t.Fatalf("restarted shard: projection hits %d after the resend, want 1: the full body was not cached", st.ProjectionCacheHits)
	}
	if n := rr.Stats().CandidatePrePass; n != 1 {
		t.Fatalf("CandidatePrePass = %d, want every request served by the first entry", n)
	}
}

// TestRouterConcurrentRepeats: concurrent requests of one shape share one
// pre-pass entry and its digest cells — whichever request fills a cell first,
// every report matches the one-at-a-time answer. Run under -race.
func TestRouterConcurrentRepeats(t *testing.T) {
	opts := pipeline.DefaultOptions()
	opts.MinSim = 0.35
	spec := "address(name,email)"
	want, err := newRemoteRouter(t, func() *schema.Repository { return testRepo(t, 400, 17) }, 2).
		Match(context.Background(), schema.MustParseSpec(spec), opts)
	if err != nil {
		t.Fatal(err)
	}
	rr := newRemoteRouter(t, func() *schema.Repository { return testRepo(t, 400, 17) }, 2)
	const callers, repeats = 8, 5
	reps := make([]*pipeline.Report, callers*repeats)
	errs := make([]error, callers*repeats)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < repeats; k++ {
				i := c*repeats + k
				reps[i], errs[i] = rr.Match(context.Background(), schema.MustParseSpec(spec), opts)
			}
		}(c)
	}
	wg.Wait()
	for i := range reps {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		assertReportsEquivalent(t, fmt.Sprintf("request %d", i), reps[i], want)
	}
	if n := rr.Stats().CandidatePrePass; n != 1 {
		t.Fatalf("CandidatePrePass = %d, want one shared entry", n)
	}
}

// TestHotEncodeAllocsFlat: once a projection's digest sits in its digest cell
// and the shard knows it, encoding a request builds only the slim body, so
// its allocations do not grow with the candidate count.
func TestHotEncodeAllocsFlat(t *testing.T) {
	ts := shardUnderTest(t)
	personal := schema.MustParseSpec("address(name,email)")
	opts := pipeline.DefaultOptions()
	hot := func(minSim float64) (allocs float64, elems int) {
		opts.MinSim = minSim
		cands := matcher.FindCandidates(personal, ts.clientRepo, matcher.NameMatcher{}, matcher.Config{MinSim: minSim})
		clusters, iterations, err := pipeline.ComputeClusters(ts.clientIx, cands, opts)
		if err != nil {
			t.Fatal(err)
		}
		staged := serve.Staged{
			Cands:      cands.Restrict(ts.clientView.Contains),
			Clusters:   clustersForView(ts.clientView, clusters),
			Iterations: iterations,
			Digest:     new(atomic.Pointer[string]),
		}
		enc, err := ts.rs.encode(context.Background(), personal, opts, staged)
		if err != nil {
			t.Fatal(err)
		}
		if h := staged.Digest.Load(); h == nil || *h != enc.hash {
			t.Fatal("a cold encode left the digest cell empty")
		}
		ts.rs.markProjection(enc.hash)
		allocs = testing.AllocsPerRun(20, func() {
			enc, err = ts.rs.encode(context.Background(), personal, opts, staged)
		})
		if err != nil {
			t.Fatal(err)
		}
		if enc.full != nil || enc.req.Candidates != nil || enc.req.Clusters != nil {
			t.Fatal("a hot encode built the projection's wire form")
		}
		return allocs, staged.Cands.TotalMappingElements()
	}
	few, nFew := hot(0.6)
	many, nMany := hot(0.1)
	if nMany < 2*nFew {
		t.Fatalf("candidate counts %d and %d are too close to show growth", nFew, nMany)
	}
	// The request, its personal tree, signature and slim body: five
	// allocations for a two-node schema, with headroom.
	const ceiling = 10
	if few != many || many > ceiling {
		t.Fatalf("hot encode allocs: %v for %d candidates, %v for %d; want equal and at most %d",
			few, nFew, many, nMany, ceiling)
	}
}

// BenchmarkRouterHotRemote is a repeated request through a router over two
// remote shards at the paper's scale: each op is a pre-pass cache hit, two
// slim shard requests over loopback HTTP, two shard report-cache hits and
// the merge.
func BenchmarkRouterHotRemote(b *testing.B) {
	rr := newRemoteRouter(b, func() *schema.Repository { return repogen.MustGenerate(repogen.DefaultConfig()) }, 2)
	personal := schema.MustParseSpec("address(name,email,phone,city)")
	opts := pipeline.DefaultOptions()
	opts.MinSim = 0.25
	opts.TopN = 10
	if _, err := rr.Match(context.Background(), personal, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rr.Match(context.Background(), personal, opts); err != nil {
			b.Fatal(err)
		}
	}
}
