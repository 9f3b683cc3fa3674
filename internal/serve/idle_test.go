package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"bellflower/internal/cluster"
	"bellflower/internal/mapgen"
	"bellflower/internal/matcher"
	"bellflower/internal/pipeline"
	"bellflower/internal/repogen"
	"bellflower/internal/schema"
)

// busyShards works out apart from the fan-out which shards of r a request
// must reach: it clusters the request over the whole repository and marks
// every shard that owns a cluster able to add to the report — a useful one,
// or under IncludePartials any cluster.
func busyShards(t testing.TB, r *Router, personal *schema.Tree, opts pipeline.Options) []bool {
	t.Helper()
	cands := r.fullRunner.MatchCandidates(personal, matcher.NameMatcher{}, matcher.Config{MinSim: opts.MinSim})
	defer cands.Release()
	clusters, _, err := pipeline.ComputeClusters(r.fullRunner.Index(), cands, opts)
	if err != nil {
		t.Fatal(err)
	}
	full := cluster.FullMask(personal.Len())
	busy := make([]bool, r.NumShards())
	for _, cl := range clusters {
		if cl.Len() > 0 && (opts.IncludePartials || cl.Useful(full)) {
			busy[r.shardOf[cl.Elements[0].Node.Tree()]] = true
		}
	}
	return busy
}

// countingShard is a ShardBackend that counts the requests it is handed.
type countingShard struct {
	ShardBackend
	asked atomic.Int64
}

func (c *countingShard) MatchStaged(ctx context.Context, personal *schema.Tree, opts pipeline.Options, staged Staged) (*pipeline.Report, error) {
	c.asked.Add(1)
	return c.ShardBackend.MatchStaged(ctx, personal, opts, staged)
}

// countShards wraps every shard of r in a countingShard.
func countShards(r *Router) []*countingShard {
	counted := make([]*countingShard, len(r.shards))
	for i, s := range r.shards {
		counted[i] = &countingShard{ShardBackend: s}
		r.shards[i] = counted[i]
	}
	return counted
}

// withoutTimes is a report with its wall-clock fields zeroed.
func withoutTimes(rep *pipeline.Report) pipeline.Report {
	out := *rep
	out.MatchTime, out.ClusterTime, out.GenTime = 0, 0, 0
	return out
}

// TestFanOutAsksOnlyBusyShards: on the paper-scale repository's clustered
// partitions at n = 2 (9,757 / 2 nodes) and n = 4 (4,925 / 4,829 / 3 / 2)
// and a balanced one, under top-N, threshold and partial-mapping requests,
// the router asks exactly the shards holding a cluster that can add to the
// report, builds an idle shard's report exactly as the shard would, and
// merges the unsharded report.
func TestFanOutAsksOnlyBusyShards(t *testing.T) {
	repo := repogen.MustGenerate(repogen.DefaultConfig())
	unsharded := NewFromRepository(repo, Config{})
	defer unsharded.Close()
	// proceedingsType(title,year) holds only non-useful clusters on the
	// clustered partitions' smallest shard: busy only under include_partials.
	specs := []string{"address(name,email,phone,city)", "book(title,author)", "order(id,date)", "proceedingsType(title,year)"}
	modes := []struct {
		name string
		set  func(*pipeline.Options)
	}{
		{"top_n 10", func(o *pipeline.Options) { o.TopN = 10 }},
		{"threshold", func(o *pipeline.Options) { o.Threshold = 0.8 }},
		{"include_partials", func(o *pipeline.Options) { o.TopN = 10; o.IncludePartials = true }},
	}
	idleSeen, partialOnly := 0, 0
	for _, part := range []struct {
		n        int
		strategy PartitionStrategy
	}{{2, PartitionClustered}, {4, PartitionClustered}, {2, PartitionBalanced}} {
		r := NewRouterWithPartition(repo, part.n, Config{}, part.strategy)
		counted := countShards(r)
		for _, spec := range specs {
			for _, mode := range modes {
				name := fmt.Sprintf("%v n=%d %s %s", part.strategy, part.n, spec, mode.name)
				personal := schema.MustParseSpec(spec)
				opts := pipeline.DefaultOptions()
				mode.set(&opts)
				busy := busyShards(t, r, personal, opts)
				if opts.IncludePartials {
					complete := opts
					complete.IncludePartials = false
					for i, b := range busyShards(t, r, personal, complete) {
						if busy[i] && !b {
							partialOnly++
						}
					}
				}
				before := make([]int64, len(counted))
				for i, c := range counted {
					before[i] = c.asked.Load()
				}
				idleBefore := r.Stats().IdleSkips
				rep, err := r.Match(context.Background(), personal, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				idle := int64(0)
				for i, c := range counted {
					asked := c.asked.Load() - before[i]
					if want := map[bool]int64{true: 1, false: 0}[busy[i]]; asked != want {
						t.Errorf("%s: shard %d asked %d times, want %d (busy=%v)", name, i, asked, want, busy[i])
					}
					if !busy[i] {
						idle++
					}
				}
				if got := r.Stats().IdleSkips - idleBefore; got != idle {
					t.Errorf("%s: IdleSkips rose by %d, want %d", name, got, idle)
				}
				idleSeen += int(idle)

				// An idle shard's report, built by the router, is the one
				// the shard itself answers for the same projection.
				e, err := r.runPrepass(context.Background(), personal, opts)
				if err != nil {
					t.Fatal(err)
				}
				for i, st := range e.shards {
					if busy[i] {
						continue
					}
					st.Cands = st.Cands.Rebind(personal)
					own, err := r.runIdle(context.Background(), personal, opts, st)
					if err != nil {
						t.Fatal(err)
					}
					theirs, err := counted[i].ShardBackend.MatchStaged(context.Background(), personal, opts, st)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(withoutTimes(own), withoutTimes(theirs)) {
						t.Errorf("%s: shard %d: router-built report %+v, shard's own %+v", name, i, own, theirs)
					}
				}

				want, err := unsharded.Match(context.Background(), personal, opts)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Incomplete || len(rep.ShardErrors) != 0 {
					t.Errorf("%s: healthy fan-out marked incomplete", name)
				}
				if got, w := rankKeys(rep), rankKeys(want); got != w {
					t.Errorf("%s: merged mappings and partials differ from unsharded\n--- unsharded\n%s--- merged\n%s", name, w, got)
				}
				if rep.MappingElements != want.MappingElements || rep.Clusters != want.Clusters || rep.Iterations != want.Iterations {
					t.Errorf("%s: elements/clusters/iterations %d/%d/%d, want %d/%d/%d", name,
						rep.MappingElements, rep.Clusters, rep.Iterations, want.MappingElements, want.Clusters, want.Iterations)
				}
				// The merged sizes come in global cluster order, exactly the
				// unsharded list; a top-N search on each of several busy
				// shards raises its own pruning floor, so only the
				// partition-independent counters match there.
				busyN := 0
				for _, b := range busy {
					if b {
						busyN++
					}
				}
				if !slices.Equal(rep.ClusterSizes, want.ClusterSizes) {
					t.Errorf("%s: cluster sizes %v, want %v", name, rep.ClusterSizes, want.ClusterSizes)
				}
				gotCtr, wantCtr := rep.Counters, want.Counters
				if busyN > 1 && opts.TopN > 0 {
					gotCtr, wantCtr = floorFree(gotCtr), floorFree(wantCtr)
				}
				if gotCtr != wantCtr {
					t.Errorf("%s: counters %+v, want %+v", name, rep.Counters, want.Counters)
				}
			}
		}
		r.Close()
	}
	if idleSeen == 0 || partialOnly == 0 {
		t.Fatalf("%d idle shards, %d busy only for partial mappings: the traffic check is vacuous", idleSeen, partialOnly)
	}
}

// floorFree keeps the counters a top-N search's pruning floor does not
// move: the search space and the useful clusters.
func floorFree(c mapgen.Counters) mapgen.Counters {
	return mapgen.Counters{SearchSpace: c.SearchSpace, UsefulClusters: c.UsefulClusters}
}

// TestIdleDeadShardFailsNothing: a dead shard that holds no useful cluster
// of a request is never asked, so it fails nothing — a strict request is
// complete and equal to the unsharded report, a partial one is neither
// Incomplete nor health-skipped — while the same dead shard still fails a
// strict request it holds a useful cluster of and degrades a partial one.
// The dead shard is a closed Service whose control plane reports it down.
func TestIdleDeadShardFailsNothing(t *testing.T) {
	repo := testRepo(t) // two-way clustered: shard 1 is the catalog tree
	idleReq, busyReq := personal(), schema.MustParseSpec("item(name,price)")
	unsharded := NewFromRepository(repo, Config{})
	defer unsharded.Close()
	want, err := unsharded.Match(context.Background(), idleReq, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, partial := range []bool{false, true} {
		r := NewRouterFromRepository(repo, 2, Config{Workers: 1, PartialResults: partial})
		defer r.Close()
		if b := busyShards(t, r, idleReq, testOpts()); !b[0] || b[1] {
			t.Fatalf("fixture: %s busies shards %v, want shard 0 only", idleReq, b)
		}
		if b := busyShards(t, r, busyReq, testOpts()); !b[1] {
			t.Fatalf("fixture: %s leaves shard 1 idle", busyReq)
		}
		localShard(r, 1).Close()
		r.shards[1] = downShard{r.shards[1]}

		rep, err := r.Match(context.Background(), idleReq, testOpts())
		if err != nil {
			t.Fatalf("partial=%v: a dead idle shard failed the request: %v", partial, err)
		}
		if rep.Incomplete || len(rep.ShardErrors) != 0 {
			t.Errorf("partial=%v: incomplete=%v errors=%+v, want a complete report", partial, rep.Incomplete, rep.ShardErrors)
		}
		if got := rankKeys(rep); got != rankKeys(want) || rep.MappingElements != want.MappingElements {
			t.Errorf("partial=%v: report differs from unsharded\n--- unsharded\n%s--- sharded\n%s", partial, rankKeys(want), got)
		}
		if st := r.Stats(); st.HealthSkips != 0 || st.IdleSkips != 1 || st.PartialResults != 0 {
			t.Errorf("partial=%v: HealthSkips=%d IdleSkips=%d PartialResults=%d, want 0/1/0",
				partial, st.HealthSkips, st.IdleSkips, st.PartialResults)
		}

		rep, err = r.Match(context.Background(), busyReq, testOpts())
		if !partial {
			if !errors.Is(err, ErrClosed) {
				t.Errorf("strict: dead shard with a useful cluster: err = %v, want ErrClosed", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("partial: %v", err)
		}
		if !rep.Incomplete || len(rep.ShardErrors) != 1 || rep.ShardErrors[0].Shard != 1 {
			t.Errorf("partial: incomplete=%v errors=%+v, want Incomplete with shard 1", rep.Incomplete, rep.ShardErrors)
		}
	}
}

// downShard is a shard whose control plane reports it unhealthy.
type downShard struct{ ShardBackend }

func (downShard) Healthy() bool { return false }
