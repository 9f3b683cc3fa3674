package shardrpc_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bellflower"
	"bellflower/internal/cluster"
	"bellflower/internal/labeling"
	"bellflower/internal/pipeline"
	"bellflower/internal/repogen"
	"bellflower/internal/schema"
	"bellflower/internal/serve"
	"bellflower/internal/shardrpc"
)

// freshRepo builds a deterministic synthetic repository — each call
// returns an INDEPENDENT copy, simulating separate processes loading the
// same repository file.
func freshRepo(t testing.TB, nodes int, seed int64) *schema.Repository {
	t.Helper()
	cfg := repogen.DefaultConfig()
	cfg.TargetNodes = nodes
	cfg.Seed = seed
	repo, err := repogen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return repo
}

func randomPersonal(rng *rand.Rand, repo *schema.Repository, extraNodes int) *schema.Tree {
	nodes := repo.Nodes()
	name := func() string { return nodes[rng.Intn(len(nodes))].Name }
	b := schema.NewBuilder("personal")
	parents := []*schema.Node{b.Root(name())}
	for i := 0; i < extraNodes; i++ {
		parents = append(parents, b.Element(parents[rng.Intn(len(parents))], name()))
	}
	return b.MustTree()
}

// rankKeys and cutReport mirror the serve package's equivalence harness:
// one line per mapping (Δ, cluster ID, image node IDs) in rank order, then
// one per partial mapping (an uncovered position as -). Every process
// builds the same deterministic repository and the pre-pass clusters once,
// so node and cluster IDs agree across the wire and a distributed report
// reproduces the unsharded keys line for line.
func rankKeys(rep *pipeline.Report) string {
	var b strings.Builder
	for _, m := range rep.Mappings {
		fmt.Fprintf(&b, "%v c%d", m.Score.Delta, m.ClusterID)
		for _, img := range m.Images {
			fmt.Fprintf(&b, " %d", img.ID)
		}
		b.WriteByte('\n')
	}
	for _, p := range rep.Partials {
		fmt.Fprintf(&b, "partial %v c%d", p.Score.Delta, p.ClusterID)
		for _, img := range p.Images {
			if img == nil {
				b.WriteString(" -")
			} else {
				fmt.Fprintf(&b, " %d", img.ID)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// cutReport is the unsharded enumeration cut to its first n mappings.
func cutReport(rep *pipeline.Report, n int) *pipeline.Report {
	cut := *rep
	if len(cut.Mappings) > n {
		cut.Mappings = cut.Mappings[:n]
	}
	return &cut
}

// shardFleet hosts n shard servers over httptest, each with its own
// repository copy — the closest in-process approximation of n separate
// bellflower-server -shard-of processes.
type shardFleet struct {
	hosts   []*bellflower.ShardHost
	servers []*httptest.Server
	addrs   []string
}

// startFleet hosts the fleet.
func startFleet(t testing.TB, nodes int, seed int64, n int, strategy bellflower.PartitionStrategy) *shardFleet {
	t.Helper()
	f := &shardFleet{}
	for i := 0; i < n; i++ {
		host, err := bellflower.NewShardHost(freshRepo(t, nodes, seed), i, n, bellflower.ServiceConfig{Workers: 2}, strategy)
		if err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/shard/match", host.HandleMatch)
		mux.HandleFunc("/v1/shard/stats", host.HandleStats)
		srv := httptest.NewServer(mux)
		f.hosts = append(f.hosts, host)
		f.servers = append(f.servers, srv)
		f.addrs = append(f.addrs, srv.URL)
	}
	t.Cleanup(f.stop)
	return f
}

func (f *shardFleet) stop() {
	for _, s := range f.servers {
		s.Close()
	}
	for _, h := range f.hosts {
		h.Close()
	}
}

// TestDistributedEquivalence is the acceptance harness for remote shards:
// a distributed match — router in this process, every shard behind a real
// HTTP hop with its OWN repository copy — must carry exactly the unsharded
// report's mappings and partial mappings, rank for rank, and a top-N
// request exactly its cut to N, for both partition strategies,
// several shard counts, and both the tree and k-means clustering variants
// (the pre-pass clusters globally, so k-means stays exact even when the
// generation runs in other processes).
func TestDistributedEquivalence(t *testing.T) {
	cases := []struct {
		seed       int64
		nodes      int
		extraNodes int
		variant    pipeline.Variant
	}{
		{seed: 21, nodes: 350, extraNodes: 2, variant: pipeline.VariantTree},
		{seed: 22, nodes: 500, extraNodes: 3, variant: pipeline.VariantMedium},
	}
	for _, tc := range cases {
		routerRepo := freshRepo(t, tc.nodes, tc.seed)
		rng := rand.New(rand.NewSource(tc.seed * 7919))
		personal := randomPersonal(rng, routerRepo, tc.extraNodes)

		opts := bellflower.DefaultOptions()
		opts.Variant = tc.variant
		opts.MinSim = 0.4
		opts.Threshold = 0.6
		opts.IncludePartials = true

		direct, err := bellflower.NewMatcher(freshRepo(t, tc.nodes, tc.seed)).Match(personal, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", tc.seed, err)
		}
		want := rankKeys(direct)
		if len(direct.Mappings) == 0 {
			t.Logf("seed %d: unsharded run found no mappings; equivalence still checked", tc.seed)
		}
		// The top-N reference is the unsharded enumeration cut to N.
		topNOpts := opts
		topNOpts.TopN = 5
		wantTopN := rankKeys(cutReport(direct, topNOpts.TopN))

		for _, strategy := range []bellflower.PartitionStrategy{bellflower.PartitionBalanced, bellflower.PartitionClustered} {
			for _, shards := range []int{2, 3, 5} {
				fleet := startFleet(t, tc.nodes, tc.seed, shards, strategy)
				backend, err := bellflower.NewDistributedService(routerRepo, fleet.addrs, bellflower.ServiceConfig{Workers: 2}, strategy)
				if err != nil {
					t.Fatalf("seed %d %v shards=%d: %v", tc.seed, strategy, shards, err)
				}
				rep, err := backend.Match(context.Background(), personal, opts)
				if err != nil {
					backend.Close()
					t.Fatalf("seed %d %v shards=%d: %v", tc.seed, strategy, shards, err)
				}
				if rep.Incomplete || len(rep.ShardErrors) != 0 {
					t.Errorf("seed %d %v shards=%d: healthy distributed fan-out marked incomplete", tc.seed, strategy, shards)
				}
				if got := rankKeys(rep); got != want {
					t.Errorf("seed %d %v shards=%d: distributed report differs from unsharded\n--- unsharded\n%s--- distributed\n%s",
						tc.seed, strategy, shards, want, got)
				}
				if rep.MappingElements != direct.MappingElements {
					t.Errorf("seed %d %v shards=%d: mapping elements %d, want %d",
						tc.seed, strategy, shards, rep.MappingElements, direct.MappingElements)
				}
				// The top-N search inside the remote shard processes must
				// carry exactly the truncated unsharded enumeration across the
				// wire. The deprecated flag rides along: it crosses the wire,
				// is in nobody's signature (the shard-side integrity check
				// would answer 400 on drift) and changes nothing.
				adaptive := topNOpts
				//lint:ignore SA1019 pins that the deprecated field is ignored end to end
				adaptive.AdaptiveTopN = true
				repAd, err := backend.Match(context.Background(), personal, adaptive)
				if err != nil {
					backend.Close()
					t.Fatalf("seed %d %v shards=%d adaptive: %v", tc.seed, strategy, shards, err)
				}
				if got := rankKeys(repAd); got != wantTopN {
					t.Errorf("seed %d %v shards=%d: distributed top-%d differs\n--- unsharded, cut\n%s--- distributed\n%s",
						tc.seed, strategy, shards, topNOpts.TopN, wantTopN, got)
				}
				// The same request again — whatever mix of report, pre-pass
				// and projection caches serves it, the answer must not drift.
				again, err := backend.Match(context.Background(), personal, opts)
				if err != nil {
					backend.Close()
					t.Fatalf("seed %d %v shards=%d repeat: %v", tc.seed, strategy, shards, err)
				}
				if got := rankKeys(again); got != want {
					t.Errorf("seed %d %v shards=%d: repeated distributed report drifted", tc.seed, strategy, shards)
				}
				backend.Close()
				// Every shard was reached, over the one codec; anything else is
				// refused by media type, not guessed at.
				for i, host := range fleet.hosts {
					if wb := host.Stats().WireBytes; wb.InBinary == 0 || wb.OutBinary == 0 || wb.InJSON != 0 || wb.OutJSON != 0 {
						t.Errorf("seed %d %v shards=%d: shard %d wire bytes %+v, want binary traffic only", tc.seed, strategy, shards, i, wb)
					}
				}
				resp, err := http.Post(fleet.addrs[0]+"/v1/shard/match", "application/json", strings.NewReader("{}"))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusUnsupportedMediaType {
					t.Errorf("seed %d %v shards=%d: JSON match body answered %d, want 415", tc.seed, strategy, shards, resp.StatusCode)
				}
				fleet.stop()
			}
		}
	}
}

// TestDistributedShardDeath: killing one shard server fails strict
// requests with that shard's error, while a partial-results router serves
// the surviving shards' merge as Report.Incomplete with the dead shard
// identified — and construction-time health checks tolerate the dead
// shard only under partial results.
func TestDistributedShardDeath(t *testing.T) {
	const nodes, seed, shards = 400, 31, 3
	fleet := startFleet(t, nodes, seed, shards, bellflower.PartitionClustered)
	routerRepo := freshRepo(t, nodes, seed)
	rng := rand.New(rand.NewSource(seed))
	personal := randomPersonal(rng, routerRepo, 2)
	opts := bellflower.DefaultOptions()
	opts.Variant = bellflower.VariantTree
	opts.MinSim = 0.4
	opts.Threshold = 0.6

	strict, err := bellflower.NewDistributedService(routerRepo, fleet.addrs, bellflower.ServiceConfig{Workers: 2}, bellflower.PartitionClustered)
	if err != nil {
		t.Fatal(err)
	}
	defer strict.Close()
	partial, err := bellflower.NewDistributedService(freshRepo(t, nodes, seed), fleet.addrs,
		bellflower.ServiceConfig{Workers: 2, PartialResults: true}, bellflower.PartitionClustered)
	if err != nil {
		t.Fatal(err)
	}
	defer partial.Close()

	// Healthy baseline through both routers.
	if _, err := strict.Match(context.Background(), personal, opts); err != nil {
		t.Fatal(err)
	}
	whole, err := partial.Match(context.Background(), personal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if whole.Incomplete {
		t.Fatal("healthy distributed fan-out marked incomplete")
	}

	// Kill shard 1's process.
	fleet.servers[1].Close()

	if _, err := strict.Match(context.Background(), personal, opts); err == nil {
		t.Error("strict distributed router served a fan-out with a dead shard")
	}
	rep, err := partial.Match(context.Background(), personal, opts)
	if err != nil {
		t.Fatalf("partial distributed router failed outright: %v", err)
	}
	if !rep.Incomplete {
		t.Error("degraded distributed merge not marked Incomplete")
	}
	if len(rep.ShardErrors) != 1 || rep.ShardErrors[0].Shard != 1 {
		t.Fatalf("ShardErrors = %+v, want exactly shard 1", rep.ShardErrors)
	}
	if rep.ShardErrors[0].Err == "" {
		t.Error("dead shard's error carries no message")
	}
	if got := partial.Stats().PartialResults; got != 1 {
		t.Errorf("PartialResults counter = %d, want 1", got)
	}

	// Construction with a dead shard: strict fails fast, partial tolerates.
	if _, err := bellflower.NewDistributedService(freshRepo(t, nodes, seed), fleet.addrs,
		bellflower.ServiceConfig{Workers: 2}, bellflower.PartitionClustered); err == nil {
		t.Error("strict construction succeeded with a dead shard")
	}
	late, err := bellflower.NewDistributedService(freshRepo(t, nodes, seed), fleet.addrs,
		bellflower.ServiceConfig{Workers: 2, PartialResults: true}, bellflower.PartitionClustered)
	if err != nil {
		t.Fatalf("partial construction rejected a dead shard: %v", err)
	}
	late.Close()
}

// TestDistributedPrePassFailure: a request whose pre-pass fails (an invalid
// cluster configuration) errors on a partial-results router over the test
// fleet, and every shard host fails the same request through its own full
// pipeline — no remote shard could have turned it into an answer.
func TestDistributedPrePassFailure(t *testing.T) {
	const nodes, seed = 300, 43
	fleet := startFleet(t, nodes, seed, 2, bellflower.PartitionClustered)
	routerRepo := freshRepo(t, nodes, seed)
	backend, err := bellflower.NewDistributedService(routerRepo, fleet.addrs,
		bellflower.ServiceConfig{Workers: 2, PartialResults: true}, bellflower.PartitionClustered)
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	personal := randomPersonal(rand.New(rand.NewSource(seed)), routerRepo, 2)
	opts := bellflower.DefaultOptions()
	opts.MinSim = 0.4
	opts.ClusterConfig = &cluster.Config{} // MaxIterations 0 → invalid

	if _, err := backend.Match(context.Background(), personal, opts); err == nil {
		t.Fatal("partial-results distributed router served a request with an invalid cluster configuration")
	}
	for i, host := range fleet.hosts {
		if _, err := host.Service().MatchStaged(context.Background(), personal, opts, serve.Staged{}); err == nil {
			t.Errorf("shard host %d ran its full pipeline under an invalid cluster configuration", i)
		}
	}
}

// TestDistributedDescriptorMismatch: a router partitioned with a different
// strategy than the shard servers must fail the health handshake with
// ErrDescriptorMismatch — never serve mappings from a mismatched ID space.
func TestDistributedDescriptorMismatch(t *testing.T) {
	const nodes, seed = 300, 41
	fleet := startFleet(t, nodes, seed, 2, bellflower.PartitionClustered)
	_, err := bellflower.NewDistributedService(freshRepo(t, nodes, seed), fleet.addrs,
		bellflower.ServiceConfig{Workers: 2, PartialResults: true}, bellflower.PartitionBalanced)
	if !errors.Is(err, shardrpc.ErrDescriptorMismatch) {
		t.Fatalf("err = %v, want ErrDescriptorMismatch", err)
	}
	// Per-request enforcement too: a raw client with a doctored descriptor
	// is rejected by the shard server even past the handshake.
	routerRepo := freshRepo(t, nodes, seed)
	ix := labeling.NewIndex(routerRepo)
	views := serve.PartitionRepositoryViews(ix, 2, serve.PartitionClustered)
	desc := shardrpc.ViewDescriptor(views[0], 0, 2, serve.PartitionClustered)
	desc.Strategy = "balanced" // doctored
	rs := shardrpc.NewReplicaSet([]*shardrpc.RemoteShard{
		shardrpc.NewRemoteShard(fleet.addrs[0], views[0], desc, shardrpc.RemoteShardConfig{})}, serve.HealthConfig{})
	personal := schema.MustParseSpec("book(title,author)")
	if _, err := rs.MatchStaged(context.Background(), personal, pipeline.DefaultOptions(), serve.Staged{}); !errors.Is(err, shardrpc.ErrDescriptorMismatch) {
		t.Fatalf("doctored descriptor: err = %v, want ErrDescriptorMismatch", err)
	}

	// And through a partial-results fan-out: shard 1 is healthy, shard 0
	// answers per-request 409s (it was "reconfigured" after the
	// handshake). The fan-out must hard-fail the request instead of
	// degrading to an Incomplete merge — a misconfigured shard's absence
	// is not a failure to tolerate but wrong answers to refuse.
	healthy := shardrpc.NewReplicaSet([]*shardrpc.RemoteShard{shardrpc.NewRemoteShard(fleet.addrs[1], views[1],
		shardrpc.ViewDescriptor(views[1], 1, 2, serve.PartitionClustered), shardrpc.RemoteShardConfig{})}, serve.HealthConfig{})
	router := serve.NewRouterWithShardBackends(ix, views,
		[]serve.ShardBackend{rs, healthy}, serve.Config{Workers: 1, PartialResults: true})
	defer router.Close()
	if _, err := router.Match(context.Background(), personal, pipeline.DefaultOptions()); !errors.Is(err, serve.ErrShardMismatch) {
		t.Fatalf("partial fan-out tolerated a descriptor mismatch: err = %v", err)
	}
	if st := router.Stats(); st.PartialResults != 0 {
		t.Errorf("mismatch served as a partial merge (%d)", st.PartialResults)
	}
}

// TestRemoteShardRetryOnce: a transport-level failure on the first attempt
// (connection killed mid-flight) is retried once and the request succeeds.
func TestRemoteShardRetryOnce(t *testing.T) {
	const nodes, seed = 300, 43
	host, err := bellflower.NewShardHost(freshRepo(t, nodes, seed), 0, 1, bellflower.ServiceConfig{Workers: 2}, bellflower.PartitionClustered)
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	killed := false
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/shard/match", func(w http.ResponseWriter, r *http.Request) {
		if !killed {
			killed = true
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("recorder not hijackable")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatal(err)
			}
			conn.Close() // first attempt dies below HTTP
			return
		}
		host.HandleMatch(w, r)
	})
	mux.HandleFunc("/v1/shard/stats", host.HandleStats)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	routerRepo := freshRepo(t, nodes, seed)
	ix := labeling.NewIndex(routerRepo)
	views := serve.PartitionRepositoryViews(ix, 1, serve.PartitionClustered)
	rs := shardrpc.NewReplicaSet([]*shardrpc.RemoteShard{shardrpc.NewRemoteShard(srv.URL, views[0],
		shardrpc.ViewDescriptor(views[0], 0, 1, serve.PartitionClustered), shardrpc.RemoteShardConfig{})}, serve.HealthConfig{})
	defer rs.Close()
	personal := schema.MustParseSpec("address(name,email)")
	opts := pipeline.DefaultOptions()
	opts.MinSim = 0.4
	rep, err := rs.MatchStaged(context.Background(), personal, opts, serve.Staged{})
	if err != nil {
		t.Fatalf("retry did not rescue the request: %v", err)
	}
	if !killed {
		t.Fatal("test never exercised the kill path")
	}
	if rep == nil {
		t.Fatal("nil report after retry")
	}
}

// TestDistributedTraceStitching: a traced distributed match must yield ONE
// stitched span tree. The router's own spans (prepass, fanout, merge) and
// every shard's remote spans (shard.serve → decode, match, encode), shipped
// back over the real HTTP hop and grafted, all hang off the same trace with
// correct parentage: each shard.serve sits under the rpc.roundtrip span
// whose X-Bellflower-Trace header it resumed from.
func TestDistributedTraceStitching(t *testing.T) {
	const seed, nodes, shards = 31, 350, 2
	routerRepo := freshRepo(t, nodes, seed)
	rng := rand.New(rand.NewSource(seed * 7919))
	personal := randomPersonal(rng, routerRepo, 2)

	fleet := startFleet(t, nodes, seed, shards, bellflower.PartitionBalanced)
	backend, err := bellflower.NewDistributedService(routerRepo, fleet.addrs,
		bellflower.ServiceConfig{Workers: 2}, bellflower.PartitionBalanced)
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()

	opts := bellflower.DefaultOptions()
	opts.MinSim = 0.4

	ctx, tr, root := bellflower.StartRequestTrace(context.Background(), "test.match")
	if _, err := backend.Match(ctx, personal, opts); err != nil {
		t.Fatal(err)
	}
	root.End()

	tree := tr.Summarize().Tree
	if tree == nil {
		t.Fatal("traced request produced no span tree")
	}
	if tree.Name != "test.match" {
		t.Fatalf("tree root is %q, want the caller's root span", tree.Name)
	}

	// Index every node by name, remembering its parent, so parentage is
	// checkable without caring about intermediate wrapper spans.
	type placed struct{ node, parent *bellflower.TraceNode }
	byName := map[string][]placed{}
	var walk func(n, parent *bellflower.TraceNode)
	walk = func(n, parent *bellflower.TraceNode) {
		byName[n.Name] = append(byName[n.Name], placed{n, parent})
		for _, c := range n.Children {
			walk(c, n)
		}
	}
	walk(tree, nil)

	for _, name := range []string{"prepass", "fanout", "merge"} {
		if got := len(byName[name]); got != 1 {
			t.Fatalf("router span %q appears %d times in the tree, want 1", name, got)
		}
		if byName[name][0].node.Remote {
			t.Fatalf("router span %q marked remote", name)
		}
	}
	if got := len(byName["shard"]); got != shards {
		t.Fatalf("%d shard fan-out spans, want %d", got, shards)
	}
	if got := len(byName["rpc.roundtrip"]); got != shards {
		t.Fatalf("%d rpc.roundtrip spans, want %d", got, shards)
	}

	serves := byName["shard.serve"]
	if len(serves) != shards {
		t.Fatalf("%d grafted shard.serve spans, want %d", len(serves), shards)
	}
	for _, p := range serves {
		if !p.node.Remote {
			t.Fatal("shard.serve span not marked remote after graft")
		}
		if p.parent == nil || p.parent.Name != "rpc.roundtrip" {
			name := "<root>"
			if p.parent != nil {
				name = p.parent.Name
			}
			t.Fatalf("shard.serve parented to %q, want rpc.roundtrip", name)
		}
		kids := map[string]bool{}
		for _, c := range p.node.Children {
			kids[c.Name] = true
			if !c.Remote {
				t.Fatalf("shard-side span %q not marked remote", c.Name)
			}
		}
		for _, want := range []string{"decode", "match", "encode"} {
			if !kids[want] {
				t.Fatalf("shard.serve is missing child span %q (has %v)", want, p.node.Children)
			}
		}
	}
}
