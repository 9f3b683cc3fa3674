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

// TestCandidateSignature: the element-matching part of the pre-pass key
// splits on every matching input and on nothing that only shapes the report.
func TestCandidateSignature(t *testing.T) {
	p := personal()
	a := testOpts()
	b := testOpts()

	// Options outside the pre-pass stages must not split the key.
	b.TopN = 99
	b.Threshold = 0.9
	if prepassSignature(p, a) != prepassSignature(p, b) {
		t.Error("pre-pass signature depends on options that cannot change the candidates")
	}

	// Matching-relevant inputs must split it.
	c := testOpts()
	c.MinSim = a.MinSim + 0.1
	if prepassSignature(p, a) == prepassSignature(p, c) {
		t.Error("MinSim change not reflected in pre-pass signature")
	}
	d := testOpts()
	d.Matcher = matcher.NameMatcher{TokenAware: true}
	if prepassSignature(p, a) == prepassSignature(p, d) {
		t.Error("matcher change not reflected in pre-pass signature")
	}
	if prepassSignature(p, a) == prepassSignature(schema.MustParseSpec("order(id)"), a) {
		t.Error("schema change not reflected in pre-pass signature")
	}
}

// TestRouterPrePassRunsOncePerSignature: requests that differ only in
// report-shaping options share one full-repository matching run, and the
// CandidatePrePass counter surfaces exactly the executions.
func TestRouterPrePassRunsOncePerSignature(t *testing.T) {
	r := NewRouterFromRepository(testRepo(t), 2, Config{})
	defer r.Close()

	for i := 0; i < 3; i++ {
		opts := testOpts()
		opts.TopN = 100 + i // unique report signature, same candidate signature
		if _, err := r.Match(context.Background(), personal(), opts); err != nil {
			t.Fatal(err)
		}
	}
	st, shards := r.Snapshot()
	if st.CandidatePrePass != 1 {
		t.Errorf("CandidatePrePass = %d, want 1 (three requests, one candidate signature)", st.CandidatePrePass)
	}
	// Per-shard snapshots never carry the router-level counter.
	for i, ss := range shards {
		if ss.CandidatePrePass != 0 {
			t.Errorf("shard %d reports CandidatePrePass %d, want 0", i, ss.CandidatePrePass)
		}
	}

	// A different MinSim is a new candidate signature.
	opts := testOpts()
	opts.MinSim = 0.2
	if _, err := r.Match(context.Background(), personal(), opts); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().CandidatePrePass; got != 2 {
		t.Errorf("CandidatePrePass = %d, want 2 after a new candidate signature", got)
	}
}

// TestRouterPrePassConcurrentSharing: concurrent cold requests with one
// candidate signature elect a single pre-pass leader.
func TestRouterPrePassConcurrentSharing(t *testing.T) {
	r := NewRouterFromRepository(testRepo(t), 2, Config{})
	defer r.Close()

	const goroutines = 16
	var wg sync.WaitGroup
	wg.Add(goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			opts := testOpts()
			opts.TopN = 1000 + g // cache-busting per request, like a cold client
			_, errs[g] = r.Match(context.Background(), personal(), opts)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if got := r.Stats().CandidatePrePass; got < 1 || got > 2 {
		// Exactly 1 in practice; allow 2 for an unlucky eviction race, but
		// never one per request.
		t.Errorf("CandidatePrePass = %d for %d concurrent identical-signature requests", got, goroutines)
	}
}

// TestRouterPrePassMatchesNoPrePassRouter: the staged pre-pass path and
// the same shards' own full pipelines, merged, must produce identical
// reports: the pre-pass is a pure speedup.
func TestRouterPrePassMatchesNoPrePassRouter(t *testing.T) {
	repo := testRepo(t)
	withPre := NewRouterFromRepository(repo, 2, Config{})
	defer withPre.Close()
	// Identical partitioning; the shards are asked directly, so nothing is
	// staged and no report cache is shared with withPre.
	without := NewRouterFromRepository(repo, 2, Config{})
	defer without.Close()

	opts := testOpts()
	a, err := withPre.Match(context.Background(), personal(), opts)
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]*pipeline.Report, without.NumShards())
	for i := range reps {
		if reps[i], err = localShard(without, i).Match(context.Background(), personal(), opts); err != nil {
			t.Fatal(err)
		}
	}
	b := mergeReports(reps, opts.TopN)
	if withPre.Stats().CandidatePrePass != 1 || without.Stats().CandidatePrePass != 0 {
		t.Errorf("prepass counters = %d / %d, want 1 / 0",
			withPre.Stats().CandidatePrePass, without.Stats().CandidatePrePass)
	}
	ka, kb := reportKeys(a), reportKeys(b)
	if len(ka) == 0 {
		t.Fatal("no mappings found; comparison is vacuous")
	}
	if fmt.Sprint(ka) != fmt.Sprint(kb) {
		t.Errorf("pre-pass changed the report:\n  with    %v\n  without %v", ka, kb)
	}
	if a.MappingElements != b.MappingElements {
		t.Errorf("mapping elements %d, want %d", a.MappingElements, b.MappingElements)
	}
}

// TestRouterPrePassRejections: router-level validation mirrors the shard
// services' without burning a pre-pass.
func TestRouterPrePassRejections(t *testing.T) {
	r := NewRouterFromRepository(testRepo(t), 2, Config{MaxSchemaNodes: 4})
	defer r.Close()

	if _, err := r.Match(context.Background(), nil, testOpts()); err == nil {
		t.Error("nil personal schema accepted")
	}
	if _, err := r.Match(context.Background(), schema.MustParseSpec("a(b,c,d,e)"), testOpts()); !errors.Is(err, ErrSchemaTooLarge) {
		t.Error("oversized schema not rejected with ErrSchemaTooLarge")
	}
	bad := testOpts()
	bad.Threshold = 2
	if _, err := r.Match(context.Background(), personal(), bad); err == nil {
		t.Error("invalid threshold accepted")
	}
	if got := r.Stats().CandidatePrePass; got != 0 {
		t.Errorf("rejected requests executed %d pre-passes", got)
	}

	r.Close()
	if _, err := r.Match(context.Background(), personal(), testOpts()); !errors.Is(err, ErrClosed) {
		t.Errorf("err after Close = %v, want ErrClosed", err)
	}
}

// TestRouterLevelStatsCounters: rejections and pre-pass failures that
// never reach a shard still surface in the rollup (they were invisible in
// per-shard counters when the pre-pass path short-circuits).
func TestRouterLevelStatsCounters(t *testing.T) {
	r := NewRouterFromRepository(testRepo(t), 2, Config{MaxSchemaNodes: 4})
	defer r.Close()

	_, _ = r.Match(context.Background(), nil, testOpts())                                // rejected
	_, _ = r.Match(context.Background(), schema.MustParseSpec("a(b,c,d,e)"), testOpts()) // rejected
	if _, err := r.Match(context.Background(), personal(), testOpts()); err != nil {     // served
		t.Fatal(err)
	}
	total, shards := r.Snapshot()
	if total.Rejected != 2 {
		t.Errorf("rollup rejected = %d, want 2", total.Rejected)
	}
	// 2 router-level rejections + 1 served request counted once per shard.
	if want := int64(2 + 2); total.Requests != want {
		t.Errorf("rollup requests = %d, want %d", total.Requests, want)
	}
	sum := int64(0)
	for _, s := range shards {
		sum += s.Rejected
	}
	if sum != 0 {
		t.Errorf("per-shard rejected sum = %d, want 0 (rejection happened above the shards)", sum)
	}

	// An already-expired context fails during the pre-pass and counts as a
	// router-level error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := testOpts()
	opts.MinSim = 0.11 // fresh pre-pass signature so the follower path isn't cached
	if _, err := r.Match(ctx, personal(), opts); err == nil {
		t.Fatal("expired context served")
	}
	if got := r.Stats().Errors; got < 1 {
		t.Errorf("rollup errors = %d, want >= 1 after a pre-pass context expiry", got)
	}
	// A failed pre-pass is not cached, so it cannot poison the key: a live
	// retry succeeds and runs a fresh pre-pass.
	before := r.Stats().CandidatePrePass
	if _, err := r.Match(context.Background(), personal(), opts); err != nil {
		t.Fatalf("retry after a failed pre-pass: %v", err)
	}
	if got := r.Stats().CandidatePrePass; got != before+1 {
		t.Errorf("pre-pass runs = %d, want %d (a failed pre-pass must be recomputed)", got, before+1)
	}
}

// manualDeadline is a context whose deadline the test fires by hand, so a
// pre-pass leader can be held waiting until its followers have joined.
type manualDeadline struct {
	context.Context
	done chan struct{}
}

func (c manualDeadline) Done() <-chan struct{} { return c.done }

func (c manualDeadline) Err() error {
	select {
	case <-c.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// waitPrePassWaiters blocks until the in-flight pre-pass under key has n
// waiters.
func waitPrePassWaiters(t *testing.T, r *Router, key string, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		r.prepassFlight.mu.Lock()
		w := 0
		if c := r.prepassFlight.calls[key]; c != nil {
			w = c.waiters
		}
		r.prepassFlight.mu.Unlock()
		if w == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters on the pre-pass, want %d", w, n)
		}
	}
}

// TestRouterPrePassLeaderGivesUpReleasesFollowers: a pre-pass leader whose
// deadline expires while it waits for a prepassSem slot fails with its own
// error; its followers, whose contexts are live, retry, and one more
// pre-pass serves them all.
func TestRouterPrePassLeaderGivesUpReleasesFollowers(t *testing.T) {
	r := NewRouterFromRepository(testRepo(t), 2, Config{Workers: 1})
	defer r.Close()
	for len(r.prepassSem) < cap(r.prepassSem) {
		r.prepassSem <- struct{}{} // every slot taken: no pre-pass can start
	}
	key := prepassSignature(personal(), testOpts())

	leaderCtx := manualDeadline{Context: context.Background(), done: make(chan struct{})}
	leaderErr := make(chan error, 1)
	go func() {
		_, err := r.Match(leaderCtx, personal(), testOpts())
		leaderErr <- err
	}()
	waitPrePassWaiters(t, r, key, 1)
	const followers = 3
	errs := make(chan error, followers)
	for i := 0; i < followers; i++ {
		go func() {
			_, err := r.Match(context.Background(), personal(), testOpts())
			errs <- err
		}()
	}
	waitPrePassWaiters(t, r, key, 1+followers)
	before := r.Stats().CandidatePrePass

	close(leaderCtx.done)
	if err := <-leaderErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("leader err = %v, want DeadlineExceeded", err)
	}
	// Free the slots; the buffer is FIFO, so these receives take the test's
	// own tokens even if a retrying follower has queued one behind them.
	for i := 0; i < cap(r.prepassSem); i++ {
		<-r.prepassSem
	}
	for i := 0; i < followers; i++ {
		if err := <-errs; err != nil {
			t.Errorf("follower: %v", err)
		}
	}
	if got := r.Stats().CandidatePrePass; got != before+1 {
		t.Errorf("CandidatePrePass = %d, want %d", got, before+1)
	}
}
