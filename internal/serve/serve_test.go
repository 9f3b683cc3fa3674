package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"bellflower/internal/matcher"
	"bellflower/internal/pipeline"
	"bellflower/internal/schema"
)

func testRepo(t testing.TB) *schema.Repository {
	t.Helper()
	repo := schema.NewRepository()
	for _, spec := range []string{
		"lib(address,book(authorName,data(title),shelf))",
		"store(book(title,author,isbn@),order(id,customer(name,email)))",
		"catalog(item(name,price),publisher(name,address))",
	} {
		repo.MustAdd(schema.MustParseSpec(spec))
	}
	return repo
}

// bookRepo is testRepo with a complete match for personal() in each of its
// three trees: under any partition every shard holds a useful cluster of the
// test request, so the router asks every shard. Fan-out tests whose shards
// must all see the request use it.
func bookRepo(t testing.TB) *schema.Repository {
	t.Helper()
	repo := schema.NewRepository()
	for _, spec := range []string{
		"lib(address,book(author,data(title),shelf))",
		"store(book(title,author,isbn@),order(id,customer(name,email)))",
		"catalog(book(title,author),publisher(name,address))",
	} {
		repo.MustAdd(schema.MustParseSpec(spec))
	}
	return repo
}

func testOpts() pipeline.Options {
	opts := pipeline.DefaultOptions()
	opts.Threshold = 0.5
	return opts
}

func personal() *schema.Tree { return schema.MustParseSpec("book(title,author)") }

func TestMatchAgreesWithDirectRun(t *testing.T) {
	repo := testRepo(t)
	s := NewFromRepository(repo, Config{})
	defer s.Close()

	rep, err := s.Match(context.Background(), personal(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := pipeline.NewRunner(repo).Run(personal(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mappings) == 0 || len(rep.Mappings) != len(direct.Mappings) {
		t.Fatalf("service found %d mappings, direct run %d", len(rep.Mappings), len(direct.Mappings))
	}
	for i := range rep.Mappings {
		if rep.Mappings[i].Score.Delta != direct.Mappings[i].Score.Delta {
			t.Fatalf("mapping %d: Δ %v != %v", i, rep.Mappings[i].Score.Delta, direct.Mappings[i].Score.Delta)
		}
	}
}

func TestCacheHit(t *testing.T) {
	s := NewFromRepository(testRepo(t), Config{})
	defer s.Close()

	r1, err := s.Match(context.Background(), personal(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Match(context.Background(), personal(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("identical repeated requests should share the cached report")
	}
	st := s.Stats()
	if st.CacheHits != 1 || st.PipelineRuns != 1 {
		t.Errorf("stats = hits %d, runs %d; want 1, 1", st.CacheHits, st.PipelineRuns)
	}

	// A different schema or different options must miss.
	if _, err := s.Match(context.Background(), schema.MustParseSpec("order(id,customer)"), testOpts()); err != nil {
		t.Fatal(err)
	}
	other := testOpts()
	other.TopN = 3
	if _, err := s.Match(context.Background(), personal(), other); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.PipelineRuns != 3 {
		t.Errorf("pipeline runs = %d, want 3", st.PipelineRuns)
	}
}

// TestMatchCached: a cache-only lookup misses without counting anything,
// answers a repeat with Match's own report as one request and one cache hit,
// and answers nothing once the service is closed.
func TestMatchCached(t *testing.T) {
	s := NewFromRepository(testRepo(t), Config{})
	defer s.Close()

	if rep, ok := s.MatchCached(personal(), testOpts()); ok || rep != nil {
		t.Fatal("cold lookup answered")
	}
	if st := s.Stats(); st.Requests != 0 || st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Fatalf("a miss counted: requests %d hits %d misses %d", st.Requests, st.CacheHits, st.CacheMisses)
	}
	want, err := s.Match(context.Background(), personal(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s.MatchCached(personal(), testOpts())
	if !ok || got != want {
		t.Fatalf("repeat: hit %v, same report %v", ok, got == want)
	}
	st := s.Stats()
	if st.Requests != 2 || st.CacheHits != 1 || st.CacheMisses != 1 || st.PipelineRuns != 1 || st.Latency.Count != 2 {
		t.Errorf("requests %d hits %d misses %d runs %d latency samples %d, want 2/1/1/1/2",
			st.Requests, st.CacheHits, st.CacheMisses, st.PipelineRuns, st.Latency.Count)
	}
	other := testOpts()
	other.TopN = 3
	if _, ok := s.MatchCached(personal(), other); ok {
		t.Error("other options answered from the cache")
	}

	s.Close()
	if _, ok := s.MatchCached(personal(), testOpts()); ok {
		t.Error("closed service answered from its cache")
	}
}

// gateMatcher blocks every similarity computation until released, so tests
// can hold a pipeline run open deterministically.
type gateMatcher struct {
	started chan struct{} // signalled once, on first use
	release chan struct{} // computations proceed after this closes
	once    *sync.Once
}

func newGateMatcher() gateMatcher {
	return gateMatcher{
		started: make(chan struct{}),
		release: make(chan struct{}),
		once:    new(sync.Once),
	}
}

func (g gateMatcher) Name() string { return "gate" }

func (g gateMatcher) Similarity(p, r *schema.Node) float64 {
	g.once.Do(func() { close(g.started) })
	<-g.release
	return matcher.NameMatcher{}.Similarity(p, r)
}

func TestSingleflightDedupe(t *testing.T) {
	s := NewFromRepository(testRepo(t), Config{Workers: 4})
	defer s.Close()

	gate := newGateMatcher()
	opts := testOpts()
	opts.Matcher = gate

	const n = 8
	var wg sync.WaitGroup
	reports := make([]*pipeline.Report, n)
	errs := make([]error, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = s.Match(context.Background(), personal(), opts)
		}(i)
	}

	// Wait for the leader's run to start, then for every follower to have
	// joined it, before letting the run proceed.
	select {
	case <-gate.started:
	case <-time.After(5 * time.Second):
		t.Fatal("pipeline run never started")
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().DedupedInFlight < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests deduped", s.Stats().DedupedInFlight, n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate.release)
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if reports[i] != reports[0] {
			t.Errorf("request %d got a different report than the shared run", i)
		}
	}
	st := s.Stats()
	if st.PipelineRuns != 1 {
		t.Errorf("pipeline runs = %d, want 1 (singleflight)", st.PipelineRuns)
	}
	if st.DedupedInFlight != n-1 {
		t.Errorf("deduped = %d, want %d", st.DedupedInFlight, n-1)
	}
	if st.InFlight != 0 {
		t.Errorf("in-flight after completion = %d, want 0", st.InFlight)
	}
}

func TestDeadlineCancelsRun(t *testing.T) {
	s := NewFromRepository(testRepo(t), Config{Workers: 1})
	defer s.Close()

	gate := newGateMatcher()
	opts := testOpts()
	opts.Matcher = gate

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.Match(ctx, personal(), opts)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline honoured after %v; should release the caller promptly", elapsed)
	}

	// Release the worker: with no waiters left the shared run context was
	// cancelled, so the pipeline aborts and nothing is cached.
	close(gate.release)
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().PipelineRuns < 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker never finished the abandoned run")
		}
		time.Sleep(time.Millisecond)
	}
	if st := s.Stats(); st.CacheLen != 0 {
		t.Errorf("abandoned run was cached (CacheLen=%d)", st.CacheLen)
	}
}

func TestDefaultTimeout(t *testing.T) {
	s := NewFromRepository(testRepo(t), Config{Workers: 1, DefaultTimeout: 30 * time.Millisecond})
	defer s.Close()

	gate := newGateMatcher()
	defer close(gate.release)
	opts := testOpts()
	opts.Matcher = gate

	_, err := s.Match(context.Background(), personal(), opts)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded via DefaultTimeout", err)
	}
}

// A cache hit returns before the default deadline is derived: with
// DefaultTimeout set, a warm MatchJSON allocates exactly what it allocates
// without one (a timer context costs a few allocations of its own).
func TestCacheHitStartsNoTimer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	warmAllocs := func(cfg Config) float64 {
		s := NewFromRepository(testRepo(t), cfg)
		defer s.Close()
		ctx, p, opts := context.Background(), personal(), testOpts()
		if _, err := s.MatchJSON(ctx, p, opts); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := s.MatchJSON(ctx, p, opts); err != nil {
				t.Fatal(err)
			}
		})
		if st := s.Stats(); st.PipelineRuns != 1 || st.CacheHits < 100 {
			t.Fatalf("the measured requests were not hits: %d pipeline runs, %d hits", st.PipelineRuns, st.CacheHits)
		}
		return allocs
	}
	plain := warmAllocs(Config{Workers: 1})
	timed := warmAllocs(Config{Workers: 1, DefaultTimeout: 30 * time.Second})
	if timed != plain {
		t.Errorf("a warm hit allocates %.0f times with DefaultTimeout set, %.0f without: the hit started a timer", timed, plain)
	}
}

func TestRejections(t *testing.T) {
	s := NewFromRepository(testRepo(t), Config{MaxSchemaNodes: 3})
	if _, err := s.Match(context.Background(), nil, testOpts()); err == nil {
		t.Error("nil schema accepted")
	}
	_, err := s.Match(context.Background(), personal(), testOpts()) // 3 nodes: ok
	if err != nil {
		t.Errorf("3-node schema rejected under limit 3: %v", err)
	}
	_, err = s.Match(context.Background(), schema.MustParseSpec("a(b,c,d)"), testOpts())
	if !errors.Is(err, ErrSchemaTooLarge) {
		t.Errorf("err = %v, want ErrSchemaTooLarge", err)
	}
	if st := s.Stats(); st.Rejected != 2 {
		t.Errorf("rejected = %d, want 2", st.Rejected)
	}

	s.Close()
	if _, err := s.Match(context.Background(), personal(), testOpts()); !errors.Is(err, ErrClosed) {
		t.Errorf("err after Close = %v, want ErrClosed", err)
	}
}

func TestRewriteQuery(t *testing.T) {
	s := NewFromRepository(testRepo(t), Config{})
	defer s.Close()

	rep, err := s.Match(context.Background(), personal(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mappings) == 0 {
		t.Fatal("no mappings")
	}
	got, err := s.RewriteQuery(`/book/title`, personal(), rep.Mappings[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[0] != '/' {
		t.Errorf("rewrite produced %q, want a repository XPath", got)
	}
}

func TestStatsLatencyHistogram(t *testing.T) {
	s := NewFromRepository(testRepo(t), Config{})
	defer s.Close()

	for i := 0; i < 5; i++ {
		if _, err := s.Match(context.Background(), personal(), testOpts()); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Latency.Count != 5 {
		t.Errorf("latency count = %d, want 5", st.Latency.Count)
	}
	if len(st.Latency.Counts) != len(st.Latency.BucketsMS)+1 {
		t.Fatalf("histogram shape: %d counts for %d buckets", len(st.Latency.Counts), len(st.Latency.BucketsMS))
	}
	var sum int64
	for _, c := range st.Latency.Counts {
		sum += c
	}
	if sum != st.Latency.Count {
		t.Errorf("bucket counts sum to %d, want %d", sum, st.Latency.Count)
	}
}

func TestReportCacheEviction(t *testing.T) {
	c := newReportCache(newGovernor(0), 2)
	r := func() *pipeline.Report { return &pipeline.Report{} }
	c.Add("a", r())
	c.Add("b", r())
	c.Add("c", r()) // evicts a
	if _, _, ok := c.Get("a"); ok {
		t.Error("a should have been evicted")
	}
	if _, _, ok := c.Get("b"); !ok {
		t.Error("b missing")
	}
	c.Add("d", r()) // c is LRU now (b was just touched): evicts c
	if _, _, ok := c.Get("c"); ok {
		t.Error("c should have been evicted")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}

	disabled := newReportCache(newGovernor(0), 0)
	disabled.Add("x", r())
	if _, _, ok := disabled.Get("x"); ok {
		t.Error("disabled cache stored an entry")
	}
}

func TestSignature(t *testing.T) {
	base := testOpts()
	p := personal()
	sig := Signature(p, base)
	if Signature(schema.MustParseSpec("book(title,author)"), base) != sig {
		t.Error("equal requests produce different signatures")
	}
	variants := []pipeline.Options{}
	for _, mutate := range []func(*pipeline.Options){
		func(o *pipeline.Options) { o.Threshold = 0.9 },
		func(o *pipeline.Options) { o.TopN = 7 },
		func(o *pipeline.Options) { o.Variant = pipeline.VariantTree },
		func(o *pipeline.Options) { o.Matcher = matcher.NameMatcher{TokenAware: true} },
		func(o *pipeline.Options) { o.StructureMatcher = matcher.PathContextMatcher{} },
		func(o *pipeline.Options) { o.Agglomerative = true },
	} {
		o := testOpts()
		mutate(&o)
		variants = append(variants, o)
	}
	seen := map[string]bool{sig: true}
	for i, o := range variants {
		s2 := Signature(p, o)
		if seen[s2] {
			t.Errorf("variant %d collides with an earlier signature", i)
		}
		seen[s2] = true
	}
	if Signature(schema.MustParseSpec("book(title,author@)"), base) == sig {
		t.Error("attribute marker not part of the signature")
	}
	if Signature(schema.MustParseSpec("book(title:string,author)"), base) == sig {
		t.Error("datatype not part of the signature")
	}

	// Composite matchers hold interface values whose fmt rendering would
	// include pointer addresses: two structurally identical instances must
	// still produce one signature, and different weights must not.
	combined := func(w float64) pipeline.Options {
		o := testOpts()
		o.Matcher = matcher.NewCombined(
			matcher.Weighted{Matcher: matcher.NameMatcher{}, Weight: w},
			matcher.Weighted{Matcher: matcher.DefaultSynonyms(), Weight: 1 - w},
		)
		return o
	}
	if Signature(p, combined(0.7)) != Signature(p, combined(0.7)) {
		t.Error("structurally identical combined matchers produce different signatures")
	}
	if Signature(p, combined(0.7)) == Signature(p, combined(0.3)) {
		t.Error("combined matchers with different weights share a signature")
	}
}

func TestConcurrentMixedLoad(t *testing.T) {
	s := NewFromRepository(testRepo(t), Config{Workers: 4, QueueDepth: 8})
	defer s.Close()

	specs := []string{
		"book(title,author)",
		"customer(name,email)",
		"item(name,price)",
		"publisher(name,address)",
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				spec := specs[(g+i)%len(specs)]
				if _, err := s.Match(context.Background(), schema.MustParseSpec(spec), testOpts()); err != nil {
					t.Errorf("goroutine %d iter %d (%s): %v", g, i, spec, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Requests != 80 {
		t.Errorf("requests = %d, want 80", st.Requests)
	}
	if got := st.CacheHits + st.CacheMisses; got != 80 {
		t.Errorf("hits+misses = %d, want 80", got)
	}
	if st.PipelineRuns > st.CacheMisses {
		t.Errorf("more runs (%d) than misses (%d)", st.PipelineRuns, st.CacheMisses)
	}
}

// TestFollowerRetriesAfterLeaderDeadline pins down the singleflight edge
// where a leader blocked on a full queue dies of its own deadline: the
// follower whose context is still live must not inherit the leader's
// context error — it retries and becomes leader of a fresh attempt.
func TestFollowerRetriesAfterLeaderDeadline(t *testing.T) {
	s := NewFromRepository(testRepo(t), Config{Workers: 1, QueueDepth: 1})
	defer s.Close()

	gate := newGateMatcher()
	gated := testOpts()
	gated.Matcher = gate

	// Occupy the single worker and fill the single queue slot.
	runningErr := make(chan error, 1)
	go func() {
		_, err := s.Match(context.Background(), schema.MustParseSpec("item(name,price)"), gated)
		runningErr <- err
	}()
	select {
	case <-gate.started:
	case <-time.After(5 * time.Second):
		t.Fatal("occupying run never started")
	}
	queuedErr := make(chan error, 1)
	go func() {
		_, err := s.Match(context.Background(), schema.MustParseSpec("customer(name,email)"), gated)
		queuedErr <- err
	}()
	waitUntil(t, func() bool { return s.Stats().QueueDepth == 1 })

	// Leader C (key K) blocks enqueueing and will die of its deadline;
	// follower D (same key, live context) joins it.
	leaderErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
		defer cancel()
		_, err := s.Match(ctx, personal(), gated)
		leaderErr <- err
	}()
	followerRes := make(chan error, 1)
	waitUntil(t, func() bool { return s.Stats().InFlight >= 1 && s.Stats().QueueDepth == 1 })
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := s.Match(ctx, personal(), gated)
		followerRes <- err
	}()
	waitUntil(t, func() bool { return s.Stats().DedupedInFlight >= 1 })

	select {
	case err := <-leaderErr:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("leader err = %v, want DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("leader never timed out")
	}
	close(gate.release) // drain: occupier, queued, then the follower's retry
	for name, ch := range map[string]chan error{"occupier": runningErr, "queued": queuedErr, "follower": followerRes} {
		select {
		case err := <-ch:
			if err != nil {
				t.Errorf("%s: %v, want success", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never finished", name)
		}
	}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCloseUnblocksWaiters(t *testing.T) {
	s := NewFromRepository(testRepo(t), Config{Workers: 1})

	gate := newGateMatcher()
	defer close(gate.release)
	opts := testOpts()
	opts.Matcher = gate

	errc := make(chan error, 1)
	go func() {
		_, err := s.Match(context.Background(), personal(), opts)
		errc <- err
	}()
	select {
	case <-gate.started:
	case <-time.After(5 * time.Second):
		t.Fatal("run never started")
	}
	go s.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) && !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want ErrClosed or Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Match did not unblock on Close")
	}
}

func ExampleService() {
	repo := schema.NewRepository()
	repo.MustAdd(schema.MustParseSpec("lib(address,book(authorName,data(title),shelf))"))
	s := NewFromRepository(repo, Config{Workers: 2})
	defer s.Close()

	opts := pipeline.DefaultOptions()
	opts.Threshold = 0.5
	rep, err := s.Match(context.Background(), schema.MustParseSpec("book(title,author)"), opts)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("found mappings:", len(rep.Mappings) > 0)
	// Output: found mappings: true
}

// TestLeaderRechecksCacheAfterJoin pins the cache-miss → flight-join
// window: a request that misses the cache just before an identical run
// finishes used to win the (freed) flight key and run the pipeline a second
// time. The hook lands a whole identical request inside that window; the
// outer request must then serve the cached report, not start run two.
func TestLeaderRechecksCacheAfterJoin(t *testing.T) {
	s := NewFromRepository(testRepo(t), Config{Workers: 1})
	defer s.Close()

	var inner *pipeline.Report
	nested := false
	s.beforeJoin = func() {
		if nested {
			return
		}
		nested = true
		var err error
		if inner, err = s.Match(context.Background(), personal(), testOpts()); err != nil {
			t.Errorf("nested request: %v", err)
		}
	}
	outer, err := s.Match(context.Background(), personal(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if outer != inner {
		t.Error("outer request did not serve the report the finished run cached")
	}
	st := s.Stats()
	if st.PipelineRuns != 1 {
		t.Errorf("pipeline runs = %d, want 1: the request elected leader after the run finished must re-read the cache", st.PipelineRuns)
	}
	if st.InFlight != 0 {
		t.Errorf("in flight = %d after both requests returned: the re-check must close the flight it opened", st.InFlight)
	}
}

// TestOversizedSchemaWithLimitDisabled: with MaxSchemaNodes < 0 the
// service-level guard is off, and a schema beyond the pipeline's 64-node
// mask used to panic inside a worker goroutine, taking the process down.
// It must come back as the same typed error, and the service must live on.
func TestOversizedSchemaWithLimitDisabled(t *testing.T) {
	wide := func(n int) *schema.Tree {
		b := schema.NewBuilder("wide")
		root := b.Root("book")
		for i := 1; i < n; i++ {
			b.Element(root, fmt.Sprintf("title%d", i))
		}
		return b.MustTree()
	}
	backends := map[string]Backend{
		"service": NewFromRepository(testRepo(t), Config{MaxSchemaNodes: -1}),
		"router":  NewRouterFromRepository(testRepo(t), 2, Config{MaxSchemaNodes: -1}),
	}
	for name, b := range backends {
		if _, err := b.Match(context.Background(), wide(65), testOpts()); !errors.Is(err, ErrSchemaTooLarge) {
			t.Errorf("%s: 65-node schema: err = %v, want ErrSchemaTooLarge", name, err)
		}
		if _, err := b.Match(context.Background(), wide(64), testOpts()); err != nil {
			t.Errorf("%s: 64-node schema (the mask's full width) refused: %v", name, err)
		}
		if _, err := b.Match(context.Background(), personal(), testOpts()); err != nil {
			t.Errorf("%s: service did not survive the oversized request: %v", name, err)
		}
		b.Close()
	}
}
