package serve

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"unsafe"

	"bellflower/internal/pipeline"
	"bellflower/internal/schema"
)

// TestRouterRepeatAsksNoShard: a repeat — the same tree or a separately
// parsed identical schema, through Match or MatchJSON, or the cold request's
// bytes through CachedJSON — is answered by the router's report cache. No
// shard is asked, the body is the cold body byte for byte, and the rollup
// counts one more request and one more hit while no per-shard counter
// moves.
func TestRouterRepeatAsksNoShard(t *testing.T) {
	t.Run("counting shard backends", func(t *testing.T) {
		r, stubs := backendRouter(t, Config{})
		checkRepeatsAskNoShard(t, r, func() int64 {
			n := int64(0)
			for _, s := range stubs {
				n += s.stagedCalls.Load() + s.matchCalls.Load()
			}
			return n
		})
	})
	t.Run("in-process shards", func(t *testing.T) {
		// bookRepo: both shards hold a useful cluster, so both are asked.
		r := NewRouterFromRepository(bookRepo(t), 2, Config{})
		t.Cleanup(r.Close)
		checkRepeatsAskNoShard(t, r, func() int64 {
			_, shards := r.Snapshot()
			n := int64(0)
			for _, s := range shards {
				n += s.Requests
			}
			return n
		})
	})
}

// checkRepeatsAskNoShard answers one cold request through r, then its
// repeats, with asked counting the requests r's shards have seen.
func checkRepeatsAskNoShard(t *testing.T, r *Router, asked func() int64) {
	t.Helper()
	ctx, p, opts := context.Background(), personal(), testOpts()
	raw := []byte(`{"personal":"book(title,author)","options":{"delta":0.5}}`)
	cold, err := r.MatchJSON(ctx, p, opts, raw)
	if err != nil {
		t.Fatal(err)
	}
	n := asked()
	if n < 2 {
		t.Fatalf("the cold request asked %d shards, want both: the check is vacuous", n)
	}
	for _, tc := range []struct {
		name      string
		tree      *schema.Tree
		json, raw bool
	}{
		{"Match, same tree", p, false, false},
		{"Match, reparsed schema", personal(), false, false},
		{"MatchJSON, same tree", p, true, false},
		{"MatchJSON, reparsed schema", personal(), true, false},
		{"CachedJSON, same bytes", nil, true, true},
	} {
		before, shardsBefore := r.Snapshot()
		var body []byte
		switch {
		case tc.raw:
			bodies := make([][]byte, 1)
			if !r.CachedJSON([][]byte{bytes.Clone(raw)}, bodies) {
				t.Fatalf("%s: no alias for the cold request's bytes", tc.name)
			}
			body = bodies[0]
		case tc.json:
			body, err = r.MatchJSON(ctx, tc.tree, opts, nil)
		default:
			var rep *pipeline.Report
			if rep, err = r.Match(ctx, tc.tree, opts); err == nil {
				body = AppendReportJSON(nil, tc.tree, rep)
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(body, cold) {
			t.Errorf("%s: body differs from the cold one:\n got: %s\nwant: %s", tc.name, body, cold)
		}
		if got := asked(); got != n {
			t.Errorf("%s: shards saw %d requests, want still %d", tc.name, got, n)
		}
		after, shardsAfter := r.Snapshot()
		if after.CacheHits != before.CacheHits+1 || after.Requests != before.Requests+1 {
			t.Errorf("%s: hits %d → %d, requests %d → %d; want +1 each",
				tc.name, before.CacheHits, after.CacheHits, before.Requests, after.Requests)
		}
		for i := range shardsAfter {
			if shardsAfter[i].Requests != shardsBefore[i].Requests || shardsAfter[i].CacheHits != shardsBefore[i].CacheHits {
				t.Errorf("%s: shard %d's counters moved", tc.name, i)
			}
		}
	}
}

// TestRouterCachesOnlyCompleteAnswers: an Incomplete merge, a failed
// fan-out, a failed pre-pass and a rejected request leave nothing in the
// router's cache, so the next identical request does the work again; once
// the shards answer, the complete merge is cached.
func TestRouterCachesOnlyCompleteAnswers(t *testing.T) {
	ctx, opts := context.Background(), testOpts()
	assertUncached := func(t *testing.T, r *Router, what string) {
		t.Helper()
		if n := r.cache.Len(); n != 0 || r.hits.Load() != 0 {
			t.Errorf("%s: router cache holds %d entries, served %d hits; want none", what, n, r.hits.Load())
		}
	}

	t.Run("incomplete merge", func(t *testing.T) {
		r, stubs := backendRouter(t, Config{PartialResults: true})
		stubs[1].Close()
		for i := 0; i < 2; i++ {
			body, err := r.MatchJSON(ctx, personal(), opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(body, []byte(`"incomplete": true`)) {
				t.Fatalf("request %d: body is not an incomplete merge: %s", i, body)
			}
		}
		if n := stubs[0].stagedCalls.Load(); n != 2 {
			t.Errorf("the healthy shard was asked %d times, want 2: the incomplete merge was cached", n)
		}
		assertUncached(t, r, "incomplete merge")
	})

	t.Run("failed fan-out", func(t *testing.T) {
		r, stubs := backendRouter(t, Config{})
		down := errors.New("shard down")
		stubs[1].serve = func(context.Context) (*pipeline.Report, error) { return nil, down }
		for i := 0; i < 2; i++ {
			if _, err := r.Match(ctx, personal(), opts); !errors.Is(err, down) {
				t.Fatalf("request %d: err = %v, want the shard's", i, err)
			}
		}
		if n := stubs[1].stagedCalls.Load(); n != 2 {
			t.Errorf("the failing shard was asked %d times, want 2", n)
		}
		assertUncached(t, r, "failed fan-out")

		stubs[1].serve = nil
		for i := 0; i < 2; i++ {
			if _, err := r.Match(ctx, personal(), opts); err != nil {
				t.Fatal(err)
			}
		}
		if n := stubs[1].stagedCalls.Load(); n != 3 || r.hits.Load() != 1 {
			t.Errorf("after recovery: shard asked %d times, %d router hits; want 3 and 1", n, r.hits.Load())
		}
	})

	t.Run("failed pre-pass", func(t *testing.T) {
		r, _ := backendRouter(t, Config{})
		for i := 0; i < 2; i++ {
			if _, err := r.Match(ctx, personal(), invalidClusterOpts()); err == nil {
				t.Fatalf("request %d: a failed pre-pass was served", i)
			}
		}
		if st := r.Stats(); st.CandidatePrePass != 2 || st.Errors != 2 {
			t.Errorf("pre-passes %d, errors %d; want 2 and 2", st.CandidatePrePass, st.Errors)
		}
		assertUncached(t, r, "failed pre-pass")
	})

	t.Run("rejected", func(t *testing.T) {
		r, stubs := backendRouter(t, Config{MaxSchemaNodes: 4})
		bad := testOpts()
		bad.Threshold = 2
		for i := 0; i < 2; i++ {
			if _, err := r.MatchJSON(ctx, nil, opts, nil); err == nil {
				t.Error("nil personal schema accepted")
			}
			if _, err := r.MatchJSON(ctx, schema.MustParseSpec("a(b,c,d,e)"), opts, nil); !errors.Is(err, ErrSchemaTooLarge) {
				t.Errorf("oversized schema: err = %v", err)
			}
			if _, err := r.MatchJSON(ctx, personal(), bad, nil); err == nil {
				t.Error("invalid threshold accepted")
			}
		}
		if st := r.Stats(); st.Rejected != 6 || st.Requests != 6 {
			t.Errorf("rejected %d of %d requests, want 6 of 6", st.Rejected, st.Requests)
		}
		for i, s := range stubs {
			if n := s.stagedCalls.Load() + s.matchCalls.Load(); n != 0 {
				t.Errorf("shard %d asked %d times for rejected requests", i, n)
			}
		}
		assertUncached(t, r, "rejected")

		// A closed router answers nothing, cached or not.
		if _, err := r.Match(ctx, personal(), opts); err != nil {
			t.Fatal(err)
		}
		r.Close()
		if _, err := r.MatchJSON(ctx, personal(), opts, nil); !errors.Is(err, ErrClosed) {
			t.Errorf("cached request after Close: err = %v, want ErrClosed", err)
		}
	})
}

// A router hit costs within a few allocations of a Service hit: the
// signature, and nothing per shard.
func TestRouterHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	hitAllocs := func(b Backend) float64 {
		defer b.Close()
		ctx, p, opts := context.Background(), personal(), testOpts()
		if _, err := b.MatchJSON(ctx, p, opts, nil); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := b.MatchJSON(ctx, p, opts, nil); err != nil {
				t.Fatal(err)
			}
		})
		if st := b.Stats(); st.CacheHits < 100 {
			t.Fatalf("the measured requests were not hits: %d hits", st.CacheHits)
		}
		return allocs
	}
	service := hitAllocs(NewFromRepository(bookRepo(t), Config{Workers: 1}))
	router := hitAllocs(NewRouterFromRepository(bookRepo(t), 2, Config{Workers: 1}))
	t.Logf("hit allocations: Service %.0f, Router %.0f", service, router)
	if router > service+2 {
		t.Errorf("a router hit allocates %.0f times, a Service hit %.0f: want at most 2 more", router, service)
	}
}

// Identical requests that miss together each fan out and merge, but answer
// with one report — the first one cached — and so with one rendering, as a
// Service's flight followers share their leader's.
func TestRouterConcurrentMissesAnswerOneReport(t *testing.T) {
	r := NewRouterFromRepository(bookRepo(t), 2, Config{})
	defer r.Close()
	ctx, opts := context.Background(), testOpts()
	reps := make([]*pipeline.Report, 2)
	bodies := make([][]byte, 2)
	errs := shareOnePrePass(t, r, prepassSignature(personal(), opts),
		func() (err error) { reps[0], err = r.Match(ctx, personal(), opts); return err },
		func() (err error) { reps[1], err = r.Match(ctx, personal(), opts); return err },
	)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if reps[0] != reps[1] {
		t.Error("two concurrent misses answered with two reports")
	}
	if _, shards := r.Snapshot(); shards[0].Requests != 2 {
		t.Fatalf("shard 0 saw %d requests, want both misses", shards[0].Requests)
	}

	opts.TopN = 3 // a new signature, the same pre-pass shape
	errs = shareOnePrePass(t, r, prepassSignature(personal(), opts),
		func() (err error) { bodies[0], err = r.MatchJSON(ctx, personal(), opts, nil); return err },
		func() (err error) { bodies[1], err = r.MatchJSON(ctx, personal(), opts, nil); return err },
	)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Errorf("two concurrent misses answered with two renderings:\n%s\n%s", bodies[0], bodies[1])
	}
	if n := r.cache.Len(); n != 2 {
		t.Errorf("router cache holds %d entries, want one per signature", n)
	}
	auditGovernor(t, r.gov)
}

// A one-shard router answers a repeat with shared cached bytes. Over its
// in-process service it answers through that service's own cache — one
// governor entry per report, no router entry, and a Service hit's
// allocations; over an external backend it answers from its own cache and
// asks the backend nothing.
func TestOneShardRouterRepeats(t *testing.T) {
	ctx, p, opts := context.Background(), personal(), testOpts()
	raw := []byte(`{"personal":"book(title,author)","options":{"delta":0.5}}`)
	repeat := func(t *testing.T, r *Router) {
		t.Helper()
		first, err := r.MatchJSON(ctx, p, opts, raw)
		if err != nil {
			t.Fatal(err)
		}
		again, err := r.MatchJSON(ctx, personal(), opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		bodies := make([][]byte, 1)
		if !r.CachedJSON([][]byte{raw}, bodies) {
			t.Fatal("the request's bytes found no cached rendering")
		}
		for _, body := range [][]byte{again, bodies[0]} {
			if unsafe.SliceData(first) != unsafe.SliceData(body) {
				t.Error("a repeat was rendered afresh, not answered with the cached bytes")
			}
		}
		if hits := r.Stats().CacheHits; hits != 2 {
			t.Errorf("cache hits = %d, want 2 (the repeats)", hits)
		}
	}
	t.Run("in-process shard", func(t *testing.T) {
		r := NewRouterFromRepository(bookRepo(t), 1, Config{Workers: 1})
		defer r.Close()
		repeat(t, r)
		if n := r.cache.Len(); n != 0 {
			t.Errorf("the router cached %d reports its shard caches", n)
		}
		if used, shard := auditGovernor(t, r.gov), r.single.cache.Bytes(); used != shard || r.single.cache.Len() != 1 {
			t.Errorf("the governor holds %d bytes, the shard's one report %d", used, shard)
		}
		if raceEnabled {
			return
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := r.MatchJSON(ctx, p, opts, nil); err != nil {
				t.Fatal(err)
			}
		})
		svc := NewFromRepository(bookRepo(t), Config{Workers: 1})
		defer svc.Close()
		if _, err := svc.MatchJSON(ctx, p, opts, nil); err != nil {
			t.Fatal(err)
		}
		want := testing.AllocsPerRun(100, func() {
			if _, err := svc.MatchJSON(ctx, p, opts, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > want {
			t.Errorf("a one-shard router hit allocates %.0f times, a Service hit %.0f", allocs, want)
		}
	})
	t.Run("external shard", func(t *testing.T) {
		stub := &stubShard{rep: stubReport(0.9)}
		r := stubRouter(t, Config{}, stub)
		repeat(t, r)
		if n := stub.matchCalls.Load() + stub.stagedCalls.Load(); n != 1 {
			t.Errorf("the backend was asked %d times, want once", n)
		}
	})
}
