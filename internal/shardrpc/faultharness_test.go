package shardrpc_test

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bellflower"
	"bellflower/internal/labeling"
	"bellflower/internal/serve"
	"bellflower/internal/shardrpc"
	"bellflower/internal/shardrpc/faultproxy"
)

// proxied fronts one fleet address with a fault-injection proxy and
// returns the proxy plus its public URL.
func proxied(t testing.TB, upstream string) (*faultproxy.Proxy, string) {
	t.Helper()
	p, err := faultproxy.New(upstream)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p)
	t.Cleanup(srv.Close)
	return p, srv.URL
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// shardReplica returns shard i's replica-health snapshots from a backend
// snapshot.
func shardReplicas(b *bellflower.ShardedService, shard int) []serve.ReplicaHealth {
	_, shards := b.Snapshot()
	return shards[shard].Replicas
}

// TestHealthFlappingShard drives a shard down and back up through the
// fault proxy and pins the whole control-plane contract: consecutive
// failures mark the shard unhealthy; while it is down, partial-mode
// requests are served Incomplete WITHOUT sending the dead shard anything
// (the proxy's match counter is the witness — no request, no per-request
// timeout); a "recovered" endpoint that answers with the WRONG shard is
// NOT re-admitted (probes re-verify the descriptor); and once the real
// shard returns, probes re-admit it and requests are complete again.
func TestHealthFlappingShard(t *testing.T) {
	const nodes, seed, shards = 350, 51, 2
	fleet := startFleet(t, nodes, seed, shards, bellflower.PartitionClustered)
	proxy, proxyURL := proxied(t, fleet.addrs[1])

	routerRepo := freshRepo(t, nodes, seed)
	rng := rand.New(rand.NewSource(seed))
	opts := bellflower.DefaultOptions()
	opts.Variant = bellflower.VariantTree
	opts.MinSim = 0.4
	opts.Threshold = 0.6
	// Shard 1 must hold a useful cluster: an idle shard is never asked.
	personal := drawPersonal(t, rng, routerRepo, shards, bellflower.PartitionClustered, 2, opts, allBusy)

	backend, err := bellflower.NewDistributedService(routerRepo,
		[]string{fleet.addrs[0], proxyURL},
		bellflower.ServiceConfig{
			Workers:        2,
			PartialResults: true,
			HealthInterval: 15 * time.Millisecond,
			HealthFailures: 2,
			DefaultTimeout: 5 * time.Second,
		}, bellflower.PartitionClustered)
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()

	// Healthy baseline: complete report through the proxy.
	rep, err := backend.Match(context.Background(), personal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Incomplete {
		t.Fatal("healthy baseline marked incomplete")
	}
	if rh := shardReplicas(backend, 1); len(rh) != 1 || !rh[0].Healthy {
		t.Fatalf("baseline replica health = %+v, want 1 healthy replica", rh)
	}

	// Down: the background probes must mark the shard unhealthy after the
	// failure threshold, with no traffic needed.
	proxy.SetDown(true)
	waitFor(t, 10*time.Second, "shard 1 marked unhealthy", func() bool {
		rh := shardReplicas(backend, 1)
		return len(rh) == 1 && !rh[0].Healthy
	})
	if rh := shardReplicas(backend, 1); rh[0].Transitions < 1 || rh[0].LastError == "" {
		t.Fatalf("unhealthy snapshot carries no evidence: %+v", rh[0])
	}

	// While down: requests are Incomplete, fast, and the dead shard sees
	// ZERO match requests — the skip costs nothing, in particular not the
	// 5s per-request timeout.
	matchBase := proxy.MatchRequests()
	for i := 0; i < 3; i++ {
		o := opts
		o.TopN = 5 + i // fresh request shapes, not one cached answer
		start := time.Now()
		rep, err := backend.Match(context.Background(), personal, o)
		if err != nil {
			t.Fatalf("request %d with unhealthy shard failed outright: %v", i, err)
		}
		if took := time.Since(start); took > 2*time.Second {
			t.Fatalf("request %d took %v with the dead shard skipped; skip must not pay a timeout", i, took)
		}
		if !rep.Incomplete || len(rep.ShardErrors) != 1 || rep.ShardErrors[0].Shard != 1 {
			t.Fatalf("request %d: incomplete=%v errors=%+v, want shard 1 skipped", i, rep.Incomplete, rep.ShardErrors)
		}
		if !strings.Contains(rep.ShardErrors[0].Err, "unhealthy") {
			t.Fatalf("request %d skip error %q does not say unhealthy", i, rep.ShardErrors[0].Err)
		}
	}
	if got := proxy.MatchRequests(); got != matchBase {
		t.Fatalf("dead shard received %d match requests while unhealthy, want 0", got-matchBase)
	}
	if st := backend.Stats(); st.HealthSkips < 3 {
		t.Fatalf("HealthSkips = %d, want >= 3", st.HealthSkips)
	}

	// "Recovery" onto the WRONG shard: the endpoint answers again, but as
	// shard 0. Probes succeed at the transport level yet the descriptor
	// re-verification must refuse re-admission.
	proxy.SetDown(false)
	if err := proxy.SetUpstream(fleet.addrs[0]); err != nil {
		t.Fatal(err)
	}
	probeBase := shardReplicas(backend, 1)[0].Probes
	waitFor(t, 10*time.Second, "3 probes against the wrong-shard upstream", func() bool {
		return shardReplicas(backend, 1)[0].Probes >= probeBase+3
	})
	rh := shardReplicas(backend, 1)[0]
	if rh.Healthy {
		t.Fatal("re-admitted a replica that hosts the wrong shard; recovery must be gated on descriptor re-verification")
	}
	if !strings.Contains(rh.LastError, "descriptor mismatch") {
		t.Fatalf("wrong-shard probe error = %q, want a descriptor mismatch", rh.LastError)
	}

	// Real recovery: back to the right shard, probes re-admit, requests
	// are complete again and traffic flows through the proxy once more.
	if err := proxy.SetUpstream(fleet.addrs[1]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "shard 1 re-admitted", func() bool {
		return shardReplicas(backend, 1)[0].Healthy
	})
	o := opts
	o.TopN = 17
	rep, err = backend.Match(context.Background(), personal, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Incomplete {
		t.Fatalf("request after re-admission still incomplete: %+v", rep.ShardErrors)
	}
	if proxy.MatchRequests() == matchBase {
		t.Fatal("re-admitted shard received no match traffic")
	}
}

// TestIdleDeadRemoteShardFailsNothing: a remote shard whose process is
// gone (its proxy drops every connection) but that holds no useful cluster
// of a request is never asked, so it fails nothing — a strict request is
// complete and equal to the unsharded report, a partial one is neither
// Incomplete nor health-skipped although the control plane has marked the
// shard down — while the same dead shard still fails a strict request it
// holds a useful cluster of and degrades a partial one.
func TestIdleDeadRemoteShardFailsNothing(t *testing.T) {
	const nodes, seed, shards = 350, 51, 2
	fleet := startFleet(t, nodes, seed, shards, bellflower.PartitionClustered)
	proxy, proxyURL := proxied(t, fleet.addrs[1])
	routerRepo := freshRepo(t, nodes, seed)
	rng := rand.New(rand.NewSource(seed))
	opts := bellflower.DefaultOptions()
	opts.Variant = bellflower.VariantTree
	opts.MinSim = 0.4
	opts.Threshold = 0.6
	idleReq := drawPersonal(t, rng, routerRepo, shards, bellflower.PartitionClustered, 2, opts,
		func(busy []bool) bool { return busy[0] && !busy[1] })
	busyReq := drawPersonal(t, rng, routerRepo, shards, bellflower.PartitionClustered, 2, opts,
		func(busy []bool) bool { return busy[1] })
	want, err := bellflower.NewMatcher(freshRepo(t, nodes, seed)).Match(idleReq, opts)
	if err != nil {
		t.Fatal(err)
	}

	addrs := []string{fleet.addrs[0], proxyURL}
	strict, err := bellflower.NewDistributedService(routerRepo, addrs,
		bellflower.ServiceConfig{Workers: 2}, bellflower.PartitionClustered)
	if err != nil {
		t.Fatal(err)
	}
	defer strict.Close()
	partial, err := bellflower.NewDistributedService(freshRepo(t, nodes, seed), addrs,
		bellflower.ServiceConfig{
			Workers:        2,
			PartialResults: true,
			HealthInterval: 15 * time.Millisecond,
			HealthFailures: 2,
		}, bellflower.PartitionClustered)
	if err != nil {
		t.Fatal(err)
	}
	defer partial.Close()

	proxy.SetDown(true)
	waitFor(t, 10*time.Second, "shard 1 marked unhealthy", func() bool {
		rh := shardReplicas(partial, 1)
		return len(rh) == 1 && !rh[0].Healthy
	})
	matchBase := proxy.MatchRequests()

	// Strict: the idle request never reaches the dead shard and is whole.
	rep, err := strict.Match(context.Background(), idleReq, opts)
	if err != nil {
		t.Fatalf("strict: a dead idle shard failed the request: %v", err)
	}
	if rep.Incomplete || rankKeys(rep) != rankKeys(want) || rep.MappingElements != want.MappingElements {
		t.Errorf("strict: report differs from unsharded\n--- unsharded\n%s--- distributed\n%s", rankKeys(want), rankKeys(rep))
	}
	if got := proxy.MatchRequests(); got != matchBase {
		t.Errorf("strict: the idle dead shard was sent %d match requests, want 0", got-matchBase)
	}
	if _, err := strict.Match(context.Background(), busyReq, opts); err == nil {
		t.Error("strict: a dead shard holding a useful cluster did not fail the request")
	}
	if proxy.MatchRequests() == matchBase {
		t.Error("strict: the busy request never reached the dead shard")
	}
	matchBase = proxy.MatchRequests()

	// Partial: the idle request is complete, with no health skip.
	rep, err = partial.Match(context.Background(), idleReq, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Incomplete || len(rep.ShardErrors) != 0 || rankKeys(rep) != rankKeys(want) {
		t.Errorf("partial: incomplete=%v errors=%+v, want the complete unsharded report", rep.Incomplete, rep.ShardErrors)
	}
	if st := partial.Stats(); st.HealthSkips != 0 || st.IdleSkips != 1 {
		t.Errorf("partial: HealthSkips=%d IdleSkips=%d, want 0 and 1", st.HealthSkips, st.IdleSkips)
	}
	rep, err = partial.Match(context.Background(), busyReq, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Incomplete || len(rep.ShardErrors) != 1 || rep.ShardErrors[0].Shard != 1 {
		t.Errorf("partial: incomplete=%v errors=%+v, want Incomplete with shard 1", rep.Incomplete, rep.ShardErrors)
	}
	if got := proxy.MatchRequests(); got != matchBase {
		t.Errorf("partial: the dead shard was sent %d match requests, want 0 (idle, then health-skipped)", got-matchBase)
	}
}

// TestDistributedEquivalenceReplicated extends the equivalence harness to
// replica groups: 2 shards × 2 replicas, strict routing. Killing one
// replica of EVERY shard must leave each report complete (never
// Incomplete) and byte-identical to the unsharded run — the mid-request
// failover to the surviving replica is invisible to the caller except in
// the failover counters.
func TestDistributedEquivalenceReplicated(t *testing.T) {
	const nodes, seed, shards = 350, 61, 2
	// Two independent fleets = two replicas of every shard, each replica a
	// separate host with its own repository copy, like real processes.
	fleetA := startFleet(t, nodes, seed, shards, bellflower.PartitionClustered)
	fleetB := startFleet(t, nodes, seed, shards, bellflower.PartitionClustered)
	addrs := make([]string, shards)
	for i := 0; i < shards; i++ {
		addrs[i] = fleetA.addrs[i] + "|" + fleetB.addrs[i]
	}

	routerRepo := freshRepo(t, nodes, seed)
	rng := rand.New(rand.NewSource(seed * 7919))
	personal := randomPersonal(rng, routerRepo, 2)
	opts := bellflower.DefaultOptions()
	opts.Variant = bellflower.VariantMedium
	opts.MinSim = 0.4
	opts.Threshold = 0.6

	direct, err := bellflower.NewMatcher(freshRepo(t, nodes, seed)).Match(personal, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := rankKeys(direct)

	// Strict routing, background probing off: replica state moves only on
	// live-traffic transport errors, so the dead replica keeps being
	// offered and the mid-request failover path is exercised
	// deterministically. The router's report cache is off, or it would
	// answer the repeats below itself.
	backend, err := bellflower.NewDistributedService(routerRepo, addrs,
		bellflower.ServiceConfig{Workers: 2, HealthInterval: -1, CacheSize: -1}, bellflower.PartitionClustered)
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()

	rep, err := backend.Match(context.Background(), personal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Incomplete {
		t.Fatal("healthy replicated fan-out marked incomplete")
	}
	if got := rankKeys(rep); got != want {
		t.Fatalf("replicated report differs from unsharded\n--- unsharded\n%s--- replicated\n%s", want, got)
	}

	// Kill replica A of EVERY shard.
	fleetA.stop()

	// With the router's report cache off each repeat fans out again; the
	// round-robin cursor guarantees the dead replica is offered first on
	// some of them, forcing the mid-request failover path.
	for i := 0; i < 4; i++ {
		rep, err := backend.Match(context.Background(), personal, opts)
		if err != nil {
			t.Fatalf("request %d after replica death failed: %v (failover must rescue it)", i, err)
		}
		if rep.Incomplete || len(rep.ShardErrors) != 0 {
			t.Fatalf("request %d after replica death incomplete: %+v — one dead replica must not degrade the report", i, rep.ShardErrors)
		}
		if got := rankKeys(rep); got != want {
			t.Fatalf("request %d after replica death differs from unsharded\n--- unsharded\n%s--- got\n%s", i, want, got)
		}
	}
	total, perShard := backend.Snapshot()
	if total.Failovers < 1 {
		t.Fatalf("Failovers = %d, want >= 1 after killing a replica per shard", total.Failovers)
	}
	for i, st := range perShard {
		if len(st.Replicas) != 2 {
			t.Fatalf("shard %d reports %d replica snapshots, want 2", i, len(st.Replicas))
		}
	}
}

// TestReplicaFailoverPrefersOtherReplica pins the satellite fix: a
// transport error no longer burns its one retry on the same endpoint —
// with a second replica available, the failover attempt goes THERE.
// A single-replica group still keeps the historical retry-once.
func TestReplicaFailoverPrefersOtherReplica(t *testing.T) {
	const nodes, seed = 300, 71
	fleet := startFleet(t, nodes, seed, 1, bellflower.PartitionClustered)
	deadProxy, deadURL := proxied(t, fleet.addrs[0])
	deadProxy.SetDown(true)

	routerRepo := freshRepo(t, nodes, seed)
	ix := labeling.NewIndex(routerRepo)
	views := serve.PartitionRepositoryViews(ix, 1, serve.PartitionClustered)
	desc := shardrpc.ViewDescriptor(views[0], 0, 1, serve.PartitionClustered)
	mk := func(addr string) *shardrpc.RemoteShard {
		return shardrpc.NewRemoteShard(addr, views[0], desc, shardrpc.RemoteShardConfig{})
	}

	group := shardrpc.NewReplicaSet([]*shardrpc.RemoteShard{mk(deadURL), mk(fleet.addrs[0])}, serve.HealthConfig{})
	defer group.Close()

	personal := randomPersonal(rand.New(rand.NewSource(seed)), routerRepo, 2)
	opts := bellflower.DefaultOptions()
	opts.MinSim = 0.4
	rep, err := group.MatchStaged(context.Background(), personal, opts, serve.Staged{})
	if err != nil {
		t.Fatalf("failover to the live replica did not rescue the request: %v", err)
	}
	if rep == nil {
		t.Fatal("nil report after failover")
	}
	if _, dropped, _ := deadProxy.Counts(); dropped == 0 {
		t.Fatal("the dead replica was never attempted; the test exercised nothing")
	}
	st := group.Stats()
	if st.Failovers < 1 {
		t.Fatalf("Failovers = %d, want >= 1", st.Failovers)
	}
	if len(st.Replicas) != 2 {
		t.Fatalf("Replicas = %+v, want 2 snapshots", st.Replicas)
	}

	// Single replica whose first connection dies mid-flight: the doubled
	// attempt order preserves the historical retry-once on the SAME
	// endpoint, and that retry is NOT a failover.
	var killed atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/shard/match", func(w http.ResponseWriter, r *http.Request) {
		if killed.CompareAndSwap(false, true) {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("recorder not hijackable")
				return
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			conn.Close() // first attempt dies below HTTP
			return
		}
		fleet.hosts[0].HandleMatch(w, r)
	})
	mux.HandleFunc("/v1/shard/stats", fleet.hosts[0].HandleStats)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	single := shardrpc.NewReplicaSet([]*shardrpc.RemoteShard{mk(srv.URL)}, serve.HealthConfig{})
	defer single.Close()
	if _, err := single.MatchStaged(context.Background(), personal, opts, serve.Staged{}); err != nil {
		t.Fatalf("single-replica retry-once did not rescue the request: %v", err)
	}
	if !killed.Load() {
		t.Fatal("the kill path was never exercised")
	}
	if st := single.Stats(); st.Failovers != 0 {
		t.Fatalf("single-replica retry counted %d failovers; same-endpoint retries are not failovers", st.Failovers)
	}
}

// TestDistributedHealthStressRace is the -race stress for the control
// plane: fast background probes, fault-flapping proxies, concurrent match
// traffic through a strict and a partial-results router over the same
// shard servers, and stats/metrics scraping all race on the shard state
// transitions, ending in a Close under fire. It asserts no data races and
// no panics, not outcomes — under flapping faults both complete,
// incomplete and failed requests are legitimate.
func TestDistributedHealthStressRace(t *testing.T) {
	const nodes, seed, shards = 300, 81, 2
	fleetA := startFleet(t, nodes, seed, shards, bellflower.PartitionClustered)
	fleetB := startFleet(t, nodes, seed, shards, bellflower.PartitionClustered)
	proxies := make([]*faultproxy.Proxy, 0, 2*shards)
	addrs := make([]string, shards)
	for i := 0; i < shards; i++ {
		pa, ua := proxied(t, fleetA.addrs[i])
		pb, ub := proxied(t, fleetB.addrs[i])
		proxies = append(proxies, pa, pb)
		addrs[i] = ua + "|" + ub
	}

	routerRepo := freshRepo(t, nodes, seed)
	var backends []bellflower.ServiceBackend // strict, then partial
	for _, partial := range []bool{false, true} {
		backend, err := bellflower.NewDistributedService(routerRepo, addrs,
			bellflower.ServiceConfig{
				Workers:        2,
				PartialResults: partial,
				HealthInterval: 5 * time.Millisecond,
				HealthFailures: 2,
				DefaultTimeout: 2 * time.Second,
			}, bellflower.PartitionClustered)
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, backend)
	}

	opts := bellflower.DefaultOptions()
	opts.Variant = bellflower.VariantTree
	opts.MinSim = 0.4
	opts.Threshold = 0.6

	var wg sync.WaitGroup
	// Match traffic: rotating personals and cache-busting top_n, mirroring
	// the hot-reload stress shape, half of it through each router.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(seed*100 + g)))
			for i := 0; i < 6; i++ {
				o := opts
				o.TopN = 3 + (g*6+i)%7
				personal := randomPersonal(rng, routerRepo, 1+i%3)
				_, _ = backends[g%2].Match(context.Background(), personal, o)
			}
		}(g)
	}
	// Chaos: flap every proxy through down/latency/5xx bursts.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 60; i++ {
			p := proxies[rng.Intn(len(proxies))]
			switch i % 3 {
			case 0:
				p.SetDown(!p.Down())
			case 1:
				p.InjectStatus(503, 2)
			case 2:
				p.SetLatency(time.Duration(rng.Intn(3)) * time.Millisecond)
			}
			time.Sleep(2 * time.Millisecond)
		}
		for _, p := range proxies {
			p.SetDown(false)
			p.SetLatency(0)
		}
	}()
	// Scraper: snapshots + Prometheus rendering of both routers race
	// against the health transitions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			total, perShard := backends[i%2].Snapshot()
			_ = serve.WritePrometheusSnapshot(io.Discard, total, perShard)
			time.Sleep(3 * time.Millisecond)
		}
	}()
	wg.Wait()
	for _, b := range backends {
		b.Close() // stops monitors under whatever state the chaos left
	}
}
