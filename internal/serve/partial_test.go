package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"bellflower/internal/pipeline"
)

// TestRouterPartialResultsFanOut: with partial results enabled, a fan-out
// in which some shards fail returns the merge of the shards that
// succeeded, marked Incomplete with the per-shard errors; with the
// default strict routing the same failure fails the request.
func TestRouterPartialResultsFanOut(t *testing.T) {
	repo := testRepo(t)

	// Strict (default): killing one shard fails every fanned-out request.
	strict := NewRouterFromRepository(repo, 3, Config{Workers: 1})
	defer strict.Close()
	localShard(strict, 1).Close()
	if _, err := strict.Match(context.Background(), personal(), testOpts()); !errors.Is(err, ErrClosed) {
		t.Fatalf("strict router err = %v, want ErrClosed", err)
	}

	// Partial: the same topology merges the two healthy shards.
	r := NewRouterFromRepository(repo, 3, Config{Workers: 1, PartialResults: true})
	defer r.Close()
	whole, err := r.Match(context.Background(), personal(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if whole.Incomplete || len(whole.ShardErrors) != 0 {
		t.Fatalf("fully successful fan-out marked incomplete: %+v", whole.ShardErrors)
	}

	localShard(r, 1).Close()
	opts := testOpts()
	opts.TopN = 77 // fresh signature: the healthy shards must recompute, not serve caches
	rep, err := r.Match(context.Background(), personal(), opts)
	if err != nil {
		t.Fatalf("partial router failed outright: %v", err)
	}
	if !rep.Incomplete {
		t.Error("partially failed merge not marked Incomplete")
	}
	if len(rep.ShardErrors) != 1 || rep.ShardErrors[0].Shard != 1 {
		t.Fatalf("ShardErrors = %+v, want exactly shard 1", rep.ShardErrors)
	}
	if rep.ShardErrors[0].Err == "" {
		t.Error("shard error carries no message")
	}
	// The merge covers exactly the healthy shards' trees: every returned
	// mapping lives outside the dead shard.
	for i, m := range rep.Mappings {
		if len(m.Images) == 0 {
			continue
		}
		if shard, ok := r.shardOf[m.Images[0].Tree()]; !ok || shard == 1 {
			t.Errorf("mapping %d drawn from the failed shard", i)
		}
	}
	if got := r.Stats().PartialResults; got != 1 {
		t.Errorf("PartialResults counter = %d, want 1", got)
	}

	// All shards failing still fails the request, Incomplete or not.
	localShard(r, 0).Close()
	localShard(r, 2).Close()
	opts.TopN = 78
	if _, err := r.Match(context.Background(), personal(), opts); !errors.Is(err, ErrClosed) {
		t.Fatalf("all-shards-failed err = %v, want ErrClosed", err)
	}
}

// TestPartialResultsDoNotMaskCallerExpiry: when the REQUEST's own context
// expires, partial mode must still error even though some shards
// succeeded — a client timeout or disconnect must never come back as a
// 200 Incomplete merge.
func TestPartialResultsDoNotMaskCallerExpiry(t *testing.T) {
	// The fast shard completes, the slow shard outlives the request deadline
	// — a mixed outcome at fan-out merge time, with the caller's context
	// expired.
	slow := &stubShard{serve: func(ctx context.Context) (*pipeline.Report, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	r := stubRouter(t, Config{PartialResults: true}, &stubShard{rep: stubReport(0.9)}, slow)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	rep, err := r.Match(ctx, personal(), testOpts())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v (report %v), want DeadlineExceeded — partial mode must not absorb the caller's own expiry", err, rep)
	}
	if got := r.Stats().PartialResults; got != 0 {
		t.Errorf("PartialResults counter = %d after a caller expiry, want 0", got)
	}
}
