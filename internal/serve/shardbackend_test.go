package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"bellflower/internal/cluster"
	"bellflower/internal/labeling"
	"bellflower/internal/mapgen"
	"bellflower/internal/objective"
	"bellflower/internal/pipeline"
	"bellflower/internal/schema"
)

// stubShard is a ShardBackend that records which kind of request it was
// handed — the router must reach shards ONLY through the interface, so a
// stub is a complete shard.
type stubShard struct {
	rep         *pipeline.Report
	serve       func(ctx context.Context) (*pipeline.Report, error) // overrides rep when set
	matchCalls  atomic.Int64                                        // full-pipeline requests (zero Staged)
	stagedCalls atomic.Int64                                        // pre-pass (staged projection) requests
	seen        func(personal *schema.Tree, staged Staged)          // called with every request when set
	closed      atomic.Bool
}

func (s *stubShard) MatchStaged(ctx context.Context, personal *schema.Tree, opts pipeline.Options, staged Staged) (*pipeline.Report, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if staged.Cands != nil {
		s.stagedCalls.Add(1)
	} else {
		s.matchCalls.Add(1)
	}
	if s.seen != nil {
		s.seen(personal, staged)
	}
	if s.serve != nil {
		return s.serve(ctx)
	}
	return s.rep, nil
}

func (s *stubShard) Stats() Stats { return Stats{} }
func (s *stubShard) Close()       { s.closed.Store(true) }

func stubReport(delta float64) *pipeline.Report {
	return &pipeline.Report{
		Variant:  pipeline.VariantMedium,
		Mappings: []mapgen.Mapping{{Score: objective.Score{Delta: delta}}},
	}
}

// backendRouter is stubRouter over two stubs answering Δ 0.9 and 0.8.
func backendRouter(t *testing.T, cfg Config) (*Router, []*stubShard) {
	t.Helper()
	stubs := []*stubShard{{rep: stubReport(0.9)}, {rep: stubReport(0.8)}}
	return stubRouter(t, cfg, stubs...), stubs
}

// stubRouter assembles a router over bookRepo with one stub per shard view:
// every shard holds a useful cluster of personal(), so every stub is asked.
func stubRouter(t *testing.T, cfg Config, stubs ...*stubShard) *Router {
	t.Helper()
	ix := labeling.NewIndex(bookRepo(t))
	views := PartitionRepositoryViews(ix, len(stubs), PartitionClustered)
	backends := make([]ShardBackend, len(stubs))
	for i := range stubs {
		backends[i] = stubs[i]
	}
	r := NewRouterWithShardBackends(ix, views, backends, cfg)
	t.Cleanup(r.Close)
	return r
}

// invalidClusterOpts passes Options.Validate but fails ComputeClusters: a
// deterministic pre-pass failure.
func invalidClusterOpts() pipeline.Options {
	o := testOpts()
	o.Variant = pipeline.VariantMedium
	o.ClusterConfig = &cluster.Config{} // MaxIterations 0 → invalid
	return o
}

// TestPrePassFailureFailsFast: a failed pre-pass fails the request under
// strict and partial-results routing alike, reaches no shard, and counts
// once in errors.
func TestPrePassFailureFailsFast(t *testing.T) {
	for _, partial := range []bool{false, true} {
		r, stubs := backendRouter(t, Config{PartialResults: partial})
		if _, err := r.Match(context.Background(), personal(), invalidClusterOpts()); err == nil {
			t.Fatalf("partial=%v: router served a request whose pre-pass failed", partial)
		}
		for i, s := range stubs {
			if n := s.matchCalls.Load() + s.stagedCalls.Load(); n != 0 {
				t.Errorf("partial=%v: shard %d reached %d times after a pre-pass failure", partial, i, n)
			}
		}
		if st := r.Stats(); st.Errors != 1 || st.Requests != 1 {
			t.Errorf("partial=%v: errors=%d requests=%d, want 1 and 1", partial, st.Errors, st.Requests)
		}
	}
}

// TestPrePassFailureOnServiceShards: real shards run the same matching and
// clustering on the same input as the pre-pass, so a request whose
// pre-pass fails would fail on every in-process Service shard too — no
// shard can turn it into an answer, partial results or not.
func TestPrePassFailureOnServiceShards(t *testing.T) {
	r := NewRouterWithPartition(testRepo(t), 2, Config{PartialResults: true}, PartitionClustered)
	defer r.Close()
	if _, err := r.Match(context.Background(), personal(), invalidClusterOpts()); err == nil {
		t.Fatal("partial-results router served a request with an invalid cluster configuration")
	}
	for i := 0; i < r.NumShards(); i++ {
		_, err := localShard(r, i).MatchStaged(context.Background(), personal(), invalidClusterOpts(), Staged{})
		if err == nil {
			t.Errorf("shard %d ran its full pipeline under an invalid cluster configuration", i)
		}
	}
}

// TestRouterWithShardBackendsPrepassPath: healthy requests through a
// backend-assembled router take the staged pre-pass path — matching and
// clustering run ONCE in the router, shards see only staged requests.
func TestRouterWithShardBackendsPrepassPath(t *testing.T) {
	r, stubs := backendRouter(t, Config{})
	rep, err := r.Match(context.Background(), personal(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mappings) != 2 {
		t.Fatalf("merged %d mappings, want 2", len(rep.Mappings))
	}
	for i, s := range stubs {
		if s.stagedCalls.Load() != 1 || s.matchCalls.Load() != 0 {
			t.Errorf("shard %d: staged=%d match=%d, want the pre-pass path exactly once",
				i, s.stagedCalls.Load(), s.matchCalls.Load())
		}
	}
	st := r.Stats()
	if st.CandidatePrePass != 1 {
		t.Errorf("CandidatePrePass = %d, want 1", st.CandidatePrePass)
	}

	// Partial-results fan-out over the interface: a partial router over the
	// same stubs, one of them closed — the other's report survives as an
	// Incomplete merge.
	partial := stubRouter(t, Config{PartialResults: true}, stubs...)
	stubs[1].Close()
	rep, err = partial.Match(context.Background(), personal(), testOpts())
	if err != nil {
		t.Fatalf("partial fan-out over backends failed: %v", err)
	}
	if !rep.Incomplete || len(rep.ShardErrors) != 1 || rep.ShardErrors[0].Shard != 1 {
		t.Fatalf("incomplete=%v errors=%+v, want incomplete with shard 1", rep.Incomplete, rep.ShardErrors)
	}
}

// recordingRouter is backendRouter whose stubs record every request they
// are handed: seen[i] lists shard i's (personal tree, projection) pairs in
// arrival order. Read it only once the requests have returned.
func recordingRouter(t *testing.T) (*Router, [][]recordedRequest) {
	t.Helper()
	seen := make([][]recordedRequest, 2)
	var mu sync.Mutex
	stubs := []*stubShard{{rep: stubReport(0.9)}, {rep: stubReport(0.8)}}
	for i, s := range stubs {
		s.seen = func(personal *schema.Tree, staged Staged) {
			mu.Lock()
			defer mu.Unlock()
			seen[i] = append(seen[i], recordedRequest{personal, staged})
		}
	}
	return stubRouter(t, Config{}, stubs...), seen
}

type recordedRequest struct {
	personal *schema.Tree
	staged   Staged
}

// TestRouterRepeatReusesProjection: a repeat that arrives while the first
// request's pre-pass is in flight shares it, and hands every shard the
// flight's own projection — the same candidate element slices and cluster
// list as the first request (nothing was restricted again) — with the
// candidates rebound to the repeat's own personal tree, a different
// instance of the same schema. Both miss the report cache, so each shard
// sees both.
func TestRouterRepeatReusesProjection(t *testing.T) {
	r, seen := recordingRouter(t)
	first, second := personal(), personal()
	matches := make([]func() error, 2)
	for i, p := range []*schema.Tree{first, second} {
		matches[i] = func() error {
			_, err := r.Match(context.Background(), p, testOpts())
			return err
		}
	}
	for _, err := range shareOnePrePass(t, r, prepassSignature(first, testOpts()), matches...) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := r.Stats().CandidatePrePass; n != 1 {
		t.Fatalf("CandidatePrePass = %d, want both requests served by one flight", n)
	}
	elems := 0
	for i, reqs := range seen {
		if len(reqs) != 2 {
			t.Fatalf("shard %d saw %d requests, want 2", i, len(reqs))
		}
		// The two fan-outs run concurrently: either request may reach a
		// shard first.
		if reqs[0].personal == reqs[1].personal {
			t.Fatalf("shard %d saw one personal tree twice, want each request's own", i)
		}
		a, b := reqs[0].staged, reqs[1].staged
		for k := range reqs {
			want, got := reqs[k].personal, reqs[k].staged.Cands
			if (want != first && want != second) || got.Personal != want {
				t.Fatalf("shard %d request %d: candidates bound to %p, want the caller's own tree %p", i, k, got.Personal, want)
			}
			for j := range got.Sets {
				if got.Sets[j].Personal != want.NodeAt(j) {
					t.Fatalf("shard %d request %d set %d: personal node not rebound", i, k, j)
				}
			}
		}
		for j := range a.Cands.Sets {
			x, y := a.Cands.Sets[j].Elems, b.Cands.Sets[j].Elems
			if len(x) != len(y) || unsafe.SliceData(x) != unsafe.SliceData(y) {
				t.Errorf("shard %d set %d: repeat got a fresh candidate slice", i, j)
			}
			elems += len(x)
		}
		if len(a.Clusters) != len(b.Clusters) || unsafe.SliceData(a.Clusters) != unsafe.SliceData(b.Clusters) {
			t.Errorf("shard %d: repeat got a fresh cluster list", i)
		}
	}
	if elems == 0 {
		t.Fatal("no candidates reached any shard: the check is vacuous")
	}
}
