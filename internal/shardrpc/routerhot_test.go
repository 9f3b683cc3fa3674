package shardrpc

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
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

// remoteRouter is a router in this process, configured by cfg, over n
// one-replica remote shards, each hosted over httptest by a ShardServer
// with its own repository copy. restart(i) replaces shard i's server with a
// fresh one — same address, empty caches — as a shard process restart
// would. Tests of what shards do with a repeat turn the router's own report
// cache off (CacheSize -1), or the router would answer the repeat itself.
type remoteRouter struct {
	*serve.Router
	hosts   []atomic.Pointer[ShardServer]
	restart func(i int)
}

func newRemoteRouter(tb testing.TB, repo func() *schema.Repository, n int, cfg serve.Config) *remoteRouter {
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
	rr.Router = serve.NewRouterWithShardBackends(ix, views, backends, cfg)
	tb.Cleanup(rr.Close)
	return rr
}

// hotPersonal is a request that gives both shards of newRemoteRouter's
// two-way clustered partition of testRepo(400, 17) a useful cluster at
// MinSim 0.35 (the small shard is one person(email@,name) tree), so the
// router asks both.
func hotPersonal() *schema.Tree { return schema.MustParseSpec("person(name,email)") }

// TestRouterResendsEntryProjectionAfter428: a shard that lost a request's
// report answers the slim repeat 428; the router resends the full body built
// from the request's own projection, without a second pre-pass, and the
// shard generates over it and caches the report.
func TestRouterResendsEntryProjectionAfter428(t *testing.T) {
	rr := newRemoteRouter(t, func() *schema.Repository { return testRepo(t, 400, 17) }, 2, noRouterCache)
	opts := pipeline.DefaultOptions()
	opts.MinSim = 0.35
	match := func() *pipeline.Report {
		t.Helper()
		rep, err := rr.Match(context.Background(), hotPersonal(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	first := match()
	for i := range rr.hosts {
		if st := rr.hosts[i].Load().Stats(); st.ProjectionCacheHits != 0 {
			t.Fatalf("shard %d: a first request was answered as slim", i)
		}
	}
	assertReportsEquivalent(t, "slim repeat", match(), first)
	for i := range rr.hosts {
		if st := rr.hosts[i].Load().Stats(); st.ProjectionCacheHits != 1 {
			t.Fatalf("shard %d: slim repeat: slim hits %d, want 1", i, st.ProjectionCacheHits)
		}
	}

	rr.restart(0)
	assertReportsEquivalent(t, "after the 428 turn", match(), first)
	st := rr.hosts[0].Load().Stats()
	if st.ProjectionCacheMisses != 1 || st.ProjectionCacheHits != 0 || st.Errors != 0 {
		t.Fatalf("restarted shard: slim misses %d hits %d errors %d, want the one bounced slim request",
			st.ProjectionCacheMisses, st.ProjectionCacheHits, st.Errors)
	}
	match()
	if st := rr.hosts[0].Load().Stats(); st.ProjectionCacheHits != 1 {
		t.Fatalf("restarted shard: slim hits %d after the resend, want 1: the report was not cached", st.ProjectionCacheHits)
	}
	if n := rr.Stats().CandidatePrePass; n != 4 {
		t.Fatalf("CandidatePrePass = %d, want one per request: the 428 turn runs none", n)
	}
}

// noRouterCache turns a router's report cache off, so every repeat reaches
// the shards.
var noRouterCache = serve.Config{CacheSize: -1}

// TestRouterOptionChangeSendsFullBody: a request that shares its pre-pass
// shape with an answered one but differs in its generation options has a
// signature no shard has answered, so each shard gets the full body — no
// 428 turn — and generates over the request's projection.
func TestRouterOptionChangeSendsFullBody(t *testing.T) {
	rr := newRemoteRouter(t, func() *schema.Repository { return testRepo(t, 400, 17) }, 2, noRouterCache)
	personal := hotPersonal()
	opts := pipeline.DefaultOptions()
	opts.MinSim = 0.35
	for _, topN := range []int{10, 10, 7, 9} {
		opts.TopN = topN
		if _, err := rr.Match(context.Background(), personal, opts); err != nil {
			t.Fatal(err)
		}
	}
	for i := range rr.hosts {
		st := rr.hosts[i].Load().Stats()
		if st.ProjectionCacheMisses != 0 || st.ProjectionCacheHits != 1 || st.PipelineRuns != 3 {
			t.Fatalf("shard %d: slim misses %d hits %d runs %d, want 0/1/3: only the top_n 10 repeat goes slim",
				i, st.ProjectionCacheMisses, st.ProjectionCacheHits, st.PipelineRuns)
		}
	}
	if n := rr.Stats().CandidatePrePass; n != 4 {
		t.Fatalf("CandidatePrePass = %d, want one per request", n)
	}
}

// TestRouterConcurrentRepeats: concurrent requests of one shape reach the
// shards as full and slim bodies in whatever order — whichever request a
// shard answers first, every report matches the one-at-a-time answer, each
// shard asked generates once and bounces no slim request. Run under -race.
func TestRouterConcurrentRepeats(t *testing.T) {
	opts := pipeline.DefaultOptions()
	opts.MinSim = 0.35
	spec := "address(name,email)"
	want, err := newRemoteRouter(t, func() *schema.Repository { return testRepo(t, 400, 17) }, 2, serve.Config{}).
		Match(context.Background(), schema.MustParseSpec(spec), opts)
	if err != nil {
		t.Fatal(err)
	}
	rr := newRemoteRouter(t, func() *schema.Repository { return testRepo(t, 400, 17) }, 2, noRouterCache)
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
	asked := 0
	for i := range rr.hosts {
		st := rr.hosts[i].Load().Stats()
		if st.Requests == 0 {
			continue
		}
		asked++
		if st.Requests != callers*repeats || st.PipelineRuns != 1 || st.ProjectionCacheMisses != 0 {
			t.Errorf("shard %d: %d requests, %d pipeline runs, %d bounced slim requests; want %d, 1, 0",
				i, st.Requests, st.PipelineRuns, st.ProjectionCacheMisses, callers*repeats)
		}
	}
	if asked == 0 {
		t.Fatal("no shard was asked: the check is vacuous")
	}
}

// TestRouterRepeatReachesNoRemoteShard: with its report cache on, the
// router answers a repeat — a separately parsed identical schema, through
// Match or MatchJSON — itself: no shard server sees a request or a byte,
// the body is the cold body byte for byte, and the rollup counts one hit.
func TestRouterRepeatReachesNoRemoteShard(t *testing.T) {
	rr := newRemoteRouter(t, func() *schema.Repository { return testRepo(t, 400, 17) }, 2, serve.Config{})
	opts := pipeline.DefaultOptions()
	opts.MinSim = 0.35
	cold, err := rr.MatchJSON(context.Background(), hotPersonal(), opts)
	if err != nil {
		t.Fatal(err)
	}
	shardStats := func() []serve.Stats {
		out := make([]serve.Stats, len(rr.hosts))
		for i := range rr.hosts {
			out[i] = rr.hosts[i].Load().Stats()
		}
		return out
	}
	before, hits := shardStats(), rr.Stats().CacheHits
	for i, st := range before {
		if st.Requests != 1 {
			t.Fatalf("shard %d: the cold request reached it %d times, want once", i, st.Requests)
		}
	}
	rep, err := rr.Match(context.Background(), hotPersonal(), opts)
	if err != nil {
		t.Fatal(err)
	}
	body, err := rr.MatchJSON(context.Background(), hotPersonal(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, cold) || !bytes.Equal(serve.AppendReportJSON(nil, hotPersonal(), rep), cold) {
		t.Errorf("a repeat's body differs from the cold one:\n got: %s\nwant: %s", body, cold)
	}
	for i, st := range shardStats() {
		if st.Requests != before[i].Requests || st.WireBytes != before[i].WireBytes {
			t.Errorf("shard %d: requests %d → %d, wire bytes %+v → %+v; a repeat reached it",
				i, before[i].Requests, st.Requests, before[i].WireBytes, st.WireBytes)
		}
	}
	if got := rr.Stats().CacheHits; got != hits+2 {
		t.Errorf("router cache hits %d → %d, want +2", hits, got)
	}
}

// TestHotEncodeAllocsFlat: once the shard has answered a request's
// signature, encoding the request builds only the slim body, so its
// allocations do not grow with the candidate count.
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
		}
		ts.rs.markAnswered(serve.Signature(personal, opts))
		var enc *encodedRequest
		allocs = testing.AllocsPerRun(20, func() {
			enc, err = ts.rs.encode(context.Background(), personal, opts, staged)
		})
		if err != nil {
			t.Fatal(err)
		}
		if enc.full != nil {
			t.Fatal("a hot encode built the full body")
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

// paperCold is one cold request at the paper's scale, projected onto every
// shard of the default two-way partition the way a router over remote
// shards projects it — each shard's clusters, and the whole candidate set
// for its client to read its own out of — with a client per shard that
// only encodes.
type paperCold struct {
	personal *schema.Tree
	opts     pipeline.Options
	staged   []serve.Staged // no shard has answered them: every encode is cold
	clients  []*RemoteShard
}

func newPaperCold(tb testing.TB) *paperCold {
	tb.Helper()
	repo := repogen.MustGenerate(repogen.DefaultConfig())
	ix := labeling.NewIndex(repo)
	views := serve.PartitionRepositoryViews(ix, 2, serve.PartitionClustered)
	pc := &paperCold{personal: schema.MustParseSpec("address(name,email,phone,city)"), opts: pipeline.DefaultOptions()}
	cands := matcher.FindCandidates(pc.personal, repo, matcher.NameMatcher{}, matcher.Config{MinSim: pc.opts.MinSim})
	clusters, iterations, err := pipeline.ComputeClusters(ix, cands, pc.opts)
	if err != nil {
		tb.Fatal(err)
	}
	for i, v := range views {
		pc.staged = append(pc.staged, serve.Staged{
			Cands:      cands,
			Clusters:   clustersForView(v, clusters),
			Iterations: iterations,
		})
		// Encoding never dials; the address only names the client.
		rs := NewRemoteShard("shard.invalid", v, ViewDescriptor(v, i, len(views), serve.PartitionClustered), RemoteShardConfig{})
		tb.Cleanup(rs.Close)
		pc.clients = append(pc.clients, rs)
	}
	return pc
}

// encode runs a cold encode of shard i's request.
func (pc *paperCold) encode(tb testing.TB, i int) *encodedRequest {
	tb.Helper()
	enc, err := pc.clients[i].encode(context.Background(), pc.personal, pc.opts, pc.staged[i])
	if err != nil {
		tb.Fatal(err)
	}
	return enc
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes one
// call of f allocates, after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// structForm is the wire-struct form of shard i's cold request: the
// client's header with the shard's own candidates (Restrict) and clusters
// translated by EncodeCandidates and EncodeClusters.
func (pc *paperCold) structForm(tb testing.TB, i int, enc *encodedRequest) *MatchRequest {
	tb.Helper()
	req := enc.req
	v := pc.clients[i].view
	var err error
	if req.Candidates, err = EncodeCandidates(v, pc.staged[i].Cands.Restrict(v.Contains)); err != nil {
		tb.Fatal(err)
	}
	if req.Clusters, err = EncodeClusters(v, pc.staged[i].Clusters); err != nil {
		tb.Fatal(err)
	}
	return &req
}

// TestColdBodiesMatchEncoder: at the paper's scale the client's full body of
// each shard's cold request, written straight from the staged projection —
// the whole candidate set — into a pooled buffer, is
// EncodeBinaryMatchRequest's of the struct form of the shard's own
// projection, byte for byte, and decodes back to it.
func TestColdBodiesMatchEncoder(t *testing.T) {
	pc := newPaperCold(t)
	for i := range pc.staged {
		enc := pc.encode(t, i)
		want := pc.structForm(t, i, enc)
		if !bytes.Equal(enc.full.b, EncodeBinaryMatchRequest(want)) {
			t.Fatalf("shard %d: the client's full body differs from the encoder's", i)
		}
		req, err := DecodeBinaryMatchRequest(enc.full.b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(req, want) {
			t.Fatalf("shard %d: the full body decodes to a different request", i)
		}
		enc.close()
	}
}

// coldBudget is what the router's encode of one cold paper-scale body, and
// the shard's read, decode and staging of it, may each allocate: the
// request's header, tree and signature, never the projection. Before the
// projection was pooled the encode cost 101,648 bytes and the decode 64,208.
const coldBudget = 16 << 10

// TestColdWireAllocs: at the paper's scale a cold request's ~35 KB body to
// shard 0 is written into a pooled buffer and read into pooled storage, so
// neither side allocates for the projection: each stays within coldBudget.
func TestColdWireAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	pc := newPaperCold(t)
	var body []byte
	encBytes := bytesPerRun(10, func() {
		enc := pc.encode(t, 0)
		body = append(body[:0], enc.full.b...)
		enc.close()
	})
	if n := len(body); n < 30<<10 || n > 40<<10 {
		t.Fatalf("shard 0 body is %d bytes, want the ~35 KB request", n)
	}
	v := pc.clients[0].view
	host := &ShardServer{view: v, desc: pc.clients[0].desc}
	decBytes := bytesPerRun(10, func() {
		buf := getBuf()
		b, err := readBody(bytes.NewReader(body), int64(len(body)), *buf)
		if err != nil {
			t.Fatal(err)
		}
		*buf = b
		var d decoded
		if _, err := host.decode(b, &d); err != nil {
			t.Fatalf("decode: %v", err)
		}
		putBuf(buf)
		if d.staged.Cands == nil {
			t.Fatal("the body staged no projection")
		}
		d.staged.Release()
	})
	t.Logf("%d-byte body: encode %.0f B, read and decode %.0f B", len(body), encBytes, decBytes)
	if encBytes > coldBudget {
		t.Errorf("cold encode allocates %.0f bytes, want at most %d", encBytes, coldBudget)
	}
	if decBytes > coldBudget {
		t.Errorf("cold read and decode allocate %.0f bytes, want at most %d", decBytes, coldBudget)
	}
}

// BenchmarkRouterColdRemote is a distinct request per op through a router
// over two remote shards at the paper's scale: each op runs the pre-pass,
// ships each busy shard its full projection over loopback HTTP, and each
// shard decodes it and generates over it. B/op and allocs/op are what the
// router and the shards together leave behind; gcs/op is the collections
// they cost.
func BenchmarkRouterColdRemote(b *testing.B) {
	repo := repogen.MustGenerate(repogen.DefaultConfig())
	rr := newRemoteRouter(b, func() *schema.Repository { return repo }, 2, serve.Config{})
	// Every op varies the root and last child over the repository's
	// vocabulary, so no two ops share a pre-pass entry or a projection.
	seen := map[string]bool{}
	var names []string
	for _, n := range repo.Nodes() {
		if !seen[n.Name] {
			seen[n.Name] = true
			names = append(names, n.Name)
		}
	}
	sort.Strings(names)
	opts := pipeline.DefaultOptions()
	opts.TopN = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := fmt.Sprintf("%s(name,email,%s)", names[i%len(names)], names[(i/len(names)+7*i)%len(names)])
		if _, err := rr.Match(context.Background(), schema.MustParseSpec(spec), opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gcs/op")
}

// BenchmarkRouterHotRemote is a repeated request through a router over two
// remote shards at the paper's scale: each op is a router report-cache hit,
// which asks no shard.
func BenchmarkRouterHotRemote(b *testing.B) {
	rr := newRemoteRouter(b, func() *schema.Repository { return repogen.MustGenerate(repogen.DefaultConfig()) }, 2, serve.Config{})
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
