package shardrpc

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"bellflower/internal/pipeline"
	"bellflower/internal/schema"
	"bellflower/internal/serve"
	"bellflower/internal/trace"
)

// ReplicaSet is a serve.ShardBackend that serves ONE shard through N
// replica servers hosting identical copies of it (same descriptor, same
// view). Requests load-balance across the healthy replicas (round-robin),
// and a transport error mid-request FAILS OVER to the next replica in the
// same attempt — one replica dying yields a complete report, not an
// Incomplete merge. The retry budget is one attempt per replica (plus the
// unhealthy ones as a last resort), so a retry prefers a DIFFERENT machine
// over the one that just failed; a single-replica set retries once on the
// same endpoint. A request that exhausts its attempts surfaces as this
// shard's error — under the router's partial-results mode that means
// Report.Incomplete with a ShardError instead of a failed request.
//
// Each replica carries a serve.HealthMonitor: transport errors during
// live traffic count toward its failure threshold, and StartHealth runs
// the background probe loops (RemoteShard.Check — which re-verifies the
// descriptor handshake — at a jittered interval), so a dead replica is
// marked unhealthy, skipped by the router's partial-results fan-out
// without paying a timeout, and re-admitted only after a probe proves
// both liveness AND an unchanged topology.
//
// All methods are safe for concurrent use. Create with NewReplicaSet and
// release with Close (which stops the monitors and closes every replica).
type ReplicaSet struct {
	replicas []*RemoteShard
	mons     []*serve.HealthMonitor

	cursor       atomic.Uint64 // round-robin start of the attempt order
	failovers    atomic.Int64  // attempts moved to a DIFFERENT replica after a transport error
	unreachables atomic.Int64  // requests that exhausted every replica without an HTTP response
	closed       atomic.Bool
	closeOnce    sync.Once
}

var _ serve.ShardBackend = (*ReplicaSet)(nil)
var _ serve.HealthReporter = (*ReplicaSet)(nil)

// NewReplicaSet groups replica clients for one shard. All replicas must
// expect the same descriptor (they serve copies of the same shard); it
// panics on an empty set or a descriptor disagreement — both programmer
// errors. hcfg tunes the per-replica health monitors; monitors start
// passive — call StartHealth to launch the background probe loops.
func NewReplicaSet(replicas []*RemoteShard, hcfg serve.HealthConfig) *ReplicaSet {
	if len(replicas) == 0 {
		panic("shardrpc: NewReplicaSet needs at least one replica")
	}
	for _, r := range replicas[1:] {
		if !r.desc.Equal(replicas[0].desc) {
			panic(fmt.Sprintf("shardrpc: NewReplicaSet: replica %s expects descriptor %s, replica %s expects %s",
				r.base, r.desc, replicas[0].base, replicas[0].desc))
		}
	}
	z := &ReplicaSet{
		replicas: append([]*RemoteShard(nil), replicas...),
		mons:     make([]*serve.HealthMonitor, len(replicas)),
	}
	for i, r := range z.replicas {
		z.mons[i] = serve.NewHealthMonitor(r.base, r.Check, hcfg)
	}
	return z
}

// StartHealth launches the background probe loop of every replica's
// monitor. Idempotent; Close stops the loops.
func (z *ReplicaSet) StartHealth() {
	for _, m := range z.mons {
		m.Start()
	}
}

// Addr renders the replica group ("a|b") for error messages and logs.
func (z *ReplicaSet) Addr() string {
	addrs := make([]string, len(z.replicas))
	for i, r := range z.replicas {
		addrs[i] = r.base
	}
	return strings.Join(addrs, "|")
}

// Healthy implements serve.HealthReporter: the shard is serviceable while
// at least one replica is. The router's partial-results fan-out skips the
// shard — without sending anything — only when this is false.
func (z *ReplicaSet) Healthy() bool {
	for _, m := range z.mons {
		if m.Healthy() {
			return true
		}
	}
	return false
}

// Check probes every replica concurrently (full descriptor handshake).
// Any reachable replica hosting a WRONG descriptor is a hard error — a
// replica group must never mix topologies. Otherwise one verified replica
// is enough: the unreachable ones are seeded unhealthy in their monitors
// (so the first requests skip them instead of rediscovering the outage)
// and the background loop re-admits them when they recover. All replicas
// unreachable is an error carrying every replica's failure.
func (z *ReplicaSet) Check(ctx context.Context) error {
	errs := make([]error, len(z.replicas))
	var wg sync.WaitGroup
	wg.Add(len(z.replicas))
	for i, r := range z.replicas {
		go func(i int, r *RemoteShard) {
			defer wg.Done()
			errs[i] = r.Check(ctx)
		}(i, r)
	}
	wg.Wait()
	reachable := 0
	for _, err := range errs {
		if err == nil {
			reachable++
		} else if errors.Is(err, ErrDescriptorMismatch) {
			return err
		}
	}
	// Seed the monitors either way: a caller that tolerates the error
	// (partial-results construction) gets a group whose dead replicas are
	// already marked, so the first requests skip instead of rediscovering
	// the outage.
	for i, err := range errs {
		if err != nil {
			z.mons[i].MarkUnhealthy(err)
		}
	}
	if reachable == 0 {
		return fmt.Errorf("shardrpc: no replica of %s reachable: %w", z.Addr(), errors.Join(errs...))
	}
	return nil
}

// MatchStaged implements serve.ShardBackend with replica failover. It
// encodes the request ONCE (all replicas share the descriptor and view, so
// one full body serves every attempt) and walks the attempt order:
// healthy replicas first, rotated round-robin so concurrent requests
// spread across the group; unhealthy replicas last, as a live-traffic last
// resort when every healthy attempt failed. A transport error feeds the
// failing replica's monitor and moves on; an HTTP-level error is the
// shard's authoritative answer and returns immediately. Only a request that
// EXHAUSTS its attempts counts as unreachable — one rescued by a later
// attempt is a served request, not an error. The body is written from the
// projection before the first attempt, so a staged Release is called on
// return.
func (z *ReplicaSet) MatchStaged(ctx context.Context, personal *schema.Tree, opts pipeline.Options, staged serve.Staged) (*pipeline.Report, error) {
	if staged.Release != nil {
		defer staged.Release()
	}
	if z.closed.Load() {
		return nil, serve.ErrClosed
	}
	enc, err := z.replicas[0].encode(ctx, personal, opts, staged)
	if err != nil {
		return nil, err
	}
	defer enc.close()

	var lastErr error
	prevFailed := -1
	for _, idx := range z.attemptOrder() {
		if ctx.Err() != nil {
			break
		}
		if prevFailed >= 0 && idx != prevFailed {
			z.failovers.Add(1)
		}
		r := z.replicas[idx]
		actx, asp := trace.StartSpan(ctx, "replica.attempt")
		asp.SetAttr("replica", r.base)
		rep, transport, err := r.post(actx, enc)
		if err == nil {
			asp.End()
			z.mons[idx].ReportSuccess()
			return rep, nil
		}
		asp.SetAttr("error", err.Error())
		asp.End()
		lastErr = err
		if !transport {
			return nil, err
		}
		z.mons[idx].ReportFailure(err)
		prevFailed = idx
	}
	// A caller whose own context expired mid-attempt did not discover an
	// unreachable group — don't charge phantom outages to a healthy one.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	z.unreachables.Add(1)
	return nil, lastErr
}

// attemptOrder builds this request's replica attempt sequence: the
// healthy replicas rotated by the round-robin cursor, then the unhealthy
// ones (same rotation) as a last resort. A single-entry order is doubled:
// one replica gets a second, fresh attempt on a transport error.
func (z *ReplicaSet) attemptOrder() []int {
	n := len(z.replicas)
	start := int(z.cursor.Add(1)-1) % n
	order := make([]int, 0, n+1)
	for _, want := range [2]bool{true, false} {
		for off := 0; off < n; off++ {
			i := (start + off) % n
			if z.mons[i].Healthy() == want {
				order = append(order, i)
			}
		}
	}
	if len(order) == 1 {
		order = append(order, order[0])
	}
	return order
}

// Stats implements serve.ShardBackend: the replicas' snapshots merged
// into one shard-level figure (requests spread across replicas, so the
// sum is the shard's total work), with the group's control-plane surface
// attached — per-replica health snapshots (Stats.Replicas) and the
// failover counter. Requests that exhausted every attempt never reached a
// shard, so the set folds them in as requests + errors. Only healthy
// replicas are asked for their remote stats; a replica already marked
// unhealthy contributes its client-side figures without paying a stats
// timeout per scrape.
func (z *ReplicaSet) Stats() serve.Stats {
	parts := make([]serve.Stats, len(z.replicas))
	health := make([]serve.ReplicaHealth, len(z.replicas))
	var wg sync.WaitGroup
	for i := range z.replicas {
		health[i] = z.mons[i].Snapshot()
		if !health[i].Healthy {
			parts[i] = z.replicas[i].clientStats()
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i] = z.replicas[i].Stats()
		}(i)
	}
	wg.Wait()
	st := serve.MergeStats(parts...)
	te := z.unreachables.Load()
	st.Requests += te
	st.Errors += te
	st.Failovers = z.failovers.Load()
	st.Replicas = health
	return st
}

// Close stops the health monitors and closes every replica client. The
// remote servers are NOT shut down — they belong to their own processes.
func (z *ReplicaSet) Close() {
	z.closeOnce.Do(func() {
		z.closed.Store(true)
		for _, m := range z.mons {
			m.Stop()
		}
		for _, r := range z.replicas {
			r.Close()
		}
	})
}
