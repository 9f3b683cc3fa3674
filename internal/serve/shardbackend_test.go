package serve

import (
	"context"
	"sync/atomic"
	"testing"

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

// stubRouter assembles a router over the test repository with one stub per
// shard view.
func stubRouter(t *testing.T, cfg Config, stubs ...*stubShard) *Router {
	t.Helper()
	ix := labeling.NewIndex(testRepo(t))
	views := PartitionRepositoryViews(ix, len(stubs), PartitionClustered)
	backends := make([]ShardBackend, len(stubs))
	for i := range stubs {
		backends[i] = stubs[i]
	}
	r := NewRouterWithShardBackends(ix, views, backends, cfg)
	t.Cleanup(r.Close)
	return r
}

// TestPrePassFailureDegradation: when the shared pre-pass fails for a
// non-context reason, a partial-results router falls back to full
// per-shard pipelines (the zero Staged) instead of failing the request,
// counts the fallback, and a strict router still errors.
func TestPrePassFailureDegradation(t *testing.T) {
	// An invalid cluster-config override passes Options.Validate but fails
	// ComputeClusters inside the pre-pass — a deterministic pre-pass
	// failure the stub shards are immune to.
	badOpts := testOpts()
	badOpts.Variant = pipeline.VariantMedium
	badOpts.ClusterConfig = &cluster.Config{} // MaxIterations 0 → invalid

	strict, strictStubs := backendRouter(t, Config{})
	if _, err := strict.Match(context.Background(), personal(), badOpts); err == nil {
		t.Fatal("strict router served a request whose pre-pass failed")
	}
	if got := strict.Stats().PrePassFallbacks; got != 0 {
		t.Errorf("strict PrePassFallbacks = %d, want 0", got)
	}
	if n := strictStubs[0].matchCalls.Load() + strictStubs[1].matchCalls.Load(); n != 0 {
		t.Errorf("strict router reached shards %d times after a pre-pass failure", n)
	}

	r, stubs := backendRouter(t, Config{PartialResults: true})
	rep, err := r.Match(context.Background(), personal(), badOpts)
	if err != nil {
		t.Fatalf("partial-results router did not degrade: %v", err)
	}
	if rep.Incomplete {
		t.Error("fully successful degraded fan-out marked Incomplete")
	}
	if len(rep.Mappings) != 2 {
		t.Fatalf("degraded merge has %d mappings, want 2", len(rep.Mappings))
	}
	if rep.Mappings[0].Score.Delta != 0.9 || rep.Mappings[1].Score.Delta != 0.8 {
		t.Errorf("degraded merge not rank-merged: %+v", rep.Mappings)
	}
	for i, s := range stubs {
		if s.matchCalls.Load() != 1 || s.stagedCalls.Load() != 0 {
			t.Errorf("shard %d: match=%d staged=%d, want the full-pipeline path exactly once",
				i, s.matchCalls.Load(), s.stagedCalls.Load())
		}
	}
	st := r.Stats()
	if st.PrePassFallbacks != 1 {
		t.Errorf("PrePassFallbacks = %d, want 1", st.PrePassFallbacks)
	}
	if st.Errors != 0 {
		t.Errorf("degraded request counted as an error (%d)", st.Errors)
	}

	// The caller's own expiry must NOT degrade: a dead request errors.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Match(ctx, personal(), badOpts); err == nil {
		t.Error("cancelled request served a degraded merge")
	}
	if got := r.Stats().PrePassFallbacks; got != 1 {
		t.Errorf("PrePassFallbacks after cancelled request = %d, want still 1", got)
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
