package shardrpc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bellflower/internal/labeling"
	"bellflower/internal/matcher"
	"bellflower/internal/pipeline"
	"bellflower/internal/repogen"
	"bellflower/internal/schema"
	"bellflower/internal/serve"
)

// keysOf renders a report's ranked mappings and partial mappings, one line
// each: Δ, cluster ID and image node IDs (an uncovered position as -), as
// the external tests' rankKeys does.
func keysOf(rep *pipeline.Report) string {
	var b strings.Builder
	line := func(kind string, delta float64, cluster int, images []*schema.Node) {
		fmt.Fprintf(&b, "%s%v c%d", kind, delta, cluster)
		for _, img := range images {
			if img == nil {
				b.WriteString(" -")
			} else {
				fmt.Fprintf(&b, " %d", img.ID)
			}
		}
		b.WriteByte('\n')
	}
	for _, m := range rep.Mappings {
		line("", m.Score.Delta, m.ClusterID, m.Images)
	}
	for _, p := range rep.Partials {
		line("partial ", p.Score.Delta, p.ClusterID, p.Images)
	}
	return b.String()
}

// await polls cond until it holds, failing the test after five seconds.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// paperRequests cuts n distinct personal schemas of 3–7 nodes with
// pairwise-distinct names as connected subtrees of repo, so every request
// finds mappings.
func paperRequests(repo *schema.Repository, n int, seed int64) []*schema.Tree {
	nodes := repo.Nodes()
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var out []*schema.Tree
	for len(out) < n {
		p := cutSubtree(rng, nodes[rng.Intn(len(nodes))], 3+len(out)%5)
		if p == nil || seen[p.String()] {
			continue
		}
		seen[p.String()] = true
		out = append(out, p)
	}
	return out
}

// cutSubtree grows a connected k-node subtree downwards from root, picking
// among the children of chosen nodes whose names are still free; nil when
// the neighbourhood runs out first.
func cutSubtree(rng *rand.Rand, root *schema.Node, k int) *schema.Tree {
	b := schema.NewBuilder("personal")
	built := map[*schema.Node]*schema.Node{root: b.Root(root.Name)}
	names := map[string]bool{root.Name: true}
	frontier := append([]*schema.Node(nil), root.Children()...)
	for b.Size() < k {
		live := frontier[:0]
		for _, c := range frontier {
			if !names[c.Name] {
				live = append(live, c)
			}
		}
		if frontier = live; len(frontier) == 0 {
			return nil
		}
		i := rng.Intn(len(frontier))
		pick := frontier[i]
		frontier = append(frontier[:i], frontier[i+1:]...)
		built[pick] = b.Element(built[pick.Parent()], pick.Name)
		names[pick.Name] = true
		frontier = append(frontier, pick.Children()...)
	}
	t, err := b.Tree()
	if err != nil {
		return nil
	}
	return t
}

// TestPooledStorageReuseDistributed serves 12 paper-scale cold requests
// through a router over two remote shards, then 200 other distinct ones —
// half one after another, half from four goroutines at once — while the
// router's pre-pass entries, its clients' request bodies and the shards'
// decoded projections go back to their pools and are reused. Every report
// must equal a fresh unsharded run's by rank keys, and the first 12, read
// again at the end, must not have changed: a buffer handed back while a
// report or a run still read it changes some report here.
func TestPooledStorageReuseDistributed(t *testing.T) {
	repo := repogen.MustGenerate(repogen.DefaultConfig())
	rr := newRemoteRouter(t, func() *schema.Repository { return repo }, 2, serve.Config{})
	opts := pipeline.DefaultOptions()
	opts.TopN = 10
	personals := paperRequests(repo, 212, 42)
	fresh := pipeline.NewRunnerFromIndexes(labeling.NewIndex(repo), matcher.NewNameIndex(repo))
	want := make([]string, len(personals))
	for i, p := range personals {
		rep, err := fresh.Run(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = keysOf(rep)
	}
	if want[0] == "" {
		t.Fatal("the first request finds no mapping: the check is vacuous")
	}
	reps := make([]*pipeline.Report, len(personals))
	serveOne := func(i int) error {
		rep, err := rr.Match(context.Background(), personals[i], opts)
		if err != nil {
			return fmt.Errorf("request %d: %v", i, err)
		}
		if got := keysOf(rep); got != want[i] {
			return fmt.Errorf("request %d (%s):\n got %s\nwant %s", i, personals[i], got, want[i])
		}
		reps[i] = rep
		return nil
	}
	for i := 0; i < 112; i++ {
		if err := serveOne(i); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 112 + g; i < len(personals); i += 4 {
				if err := serveOne(i); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i, rep := range reps[:12] {
		if got := keysOf(rep); got != want[i] {
			t.Errorf("request %d changed after later requests reused the pools:\n got %s\nwant %s", i, got, want[i])
		}
	}
}

// gateMatcher scores every pair 0.9, and its first call blocks until open
// is closed, holding the worker that runs it.
type gateMatcher struct {
	entered chan struct{}
	open    chan struct{}
	once    *sync.Once
}

func (m gateMatcher) Name() string { return "gate" }

func (m gateMatcher) Similarity(p, r *schema.Node) float64 {
	m.once.Do(func() {
		close(m.entered)
		<-m.open
	})
	return 0.9
}

// TestPooledProjectionOutlivesExpiredHandler: a shard handler whose context
// expires while its projection waits in the service's queue leaves the
// projection to the run. The shard's only worker is held; request A is
// queued by a caller that gives up, and joined by one that waits; then full
// bodies of a cached request B are decoded over and over, taking pooled
// storage. When the worker reaches A it must read A's own projection, so
// the waiting caller gets the report a fresh run computes.
func TestPooledProjectionOutlivesExpiredHandler(t *testing.T) {
	serverRepo := testRepo(t, 400, 17)
	views := serve.PartitionRepositoryViews(labeling.NewIndex(serverRepo), 2, serve.PartitionClustered)
	sv := views[0]
	svc := serve.New(viewRunner(sv), serve.Config{Workers: 1})
	host := NewShardServer(svc, sv, ViewDescriptor(sv, 0, 2, serve.PartitionClustered))
	t.Cleanup(host.Close)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/shard/match", host.HandleMatch)
	mux.HandleFunc("/v1/shard/stats", host.HandleStats)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	clientRepo := testRepo(t, 400, 17)
	cix := labeling.NewIndex(clientRepo)
	cv := serve.PartitionRepositoryViews(cix, 2, serve.PartitionClustered)[0]
	stage := func(spec string, opts pipeline.Options) (*schema.Tree, serve.Staged) {
		personal := schema.MustParseSpec(spec)
		cands := matcher.FindCandidates(personal, clientRepo, matcher.NameMatcher{}, matcher.Config{MinSim: opts.MinSim})
		clusters, iterations, err := pipeline.ComputeClusters(cix, cands, opts)
		if err != nil {
			t.Fatal(err)
		}
		return personal, serve.Staged{Cands: cands, Clusters: clustersForView(cv, clusters), Iterations: iterations}
	}
	newClient := func() *ReplicaSet {
		rs := NewRemoteShard(srv.URL, cv, ViewDescriptor(cv, 0, 2, serve.PartitionClustered), RemoteShardConfig{})
		set := NewReplicaSet([]*RemoteShard{rs}, serve.HealthConfig{})
		t.Cleanup(set.Close)
		return set
	}
	opts := pipeline.DefaultOptions()
	opts.MinSim = 0.35
	personalA, stagedA := stage("person(name,email)", opts)
	personalB, stagedB := stage("address(name,email)", opts)

	// A's expected report: its body decoded on the shard's view and run
	// alone.
	enc, err := newClient().replicas[0].encode(context.Background(), personalA, opts, stagedA)
	if err != nil {
		t.Fatal(err)
	}
	reqA, err := DecodeBinaryMatchRequest(enc.full.b)
	enc.close()
	if err != nil {
		t.Fatal(err)
	}
	dA, err := DecodeTree(reqA.Personal)
	if err != nil {
		t.Fatal(err)
	}
	candsA, err := DecodeCandidates(sv, dA, reqA.Candidates)
	if err != nil {
		t.Fatal(err)
	}
	clustersA, err := DecodeClusters(sv, reqA.Clusters)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := viewRunner(sv).RunWithClusters(context.Background(), dA, candsA, clustersA, reqA.Iterations, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := keysOf(fresh)
	if want == "" {
		t.Fatal("request A finds no mapping: the check is vacuous")
	}

	// B is cached on the shard; its full body is what later decodes send.
	if _, err := newClient().MatchStaged(context.Background(), personalB, opts, stagedB); err != nil {
		t.Fatal(err)
	}
	enc, err = newClient().replicas[0].encode(context.Background(), personalB, opts, stagedB)
	if err != nil {
		t.Fatal(err)
	}
	bodyB := append([]byte(nil), enc.full.b...)
	enc.close()

	// Hold the only worker.
	gate := gateMatcher{entered: make(chan struct{}), open: make(chan struct{}), once: new(sync.Once)}
	held := pipeline.DefaultOptions()
	held.Matcher = gate
	heldDone := make(chan error, 1)
	go func() {
		_, err := svc.Match(context.Background(), schema.MustParseSpec("hold(on)"), held)
		heldDone <- err
	}()
	<-gate.entered

	// A's first caller leads the run and gives up while it is queued; its
	// second caller joins the run and waits for it.
	expired := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		defer cancel()
		_, err := newClient().MatchStaged(ctx, personalA, opts, stagedA)
		expired <- err
	}()
	await(t, "A queued", func() bool { return svc.Stats().QueueDepth == 1 })
	type result struct {
		rep *pipeline.Report
		err error
	}
	joined := make(chan result, 1)
	go func() {
		rep, err := newClient().MatchStaged(context.Background(), personalA, opts, stagedA)
		joined <- result{rep, err}
	}()
	await(t, "A joined", func() bool { return svc.Stats().DedupedInFlight == 1 })
	if err := <-expired; err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("A's first caller: %v, want its deadline", err)
	}

	// Decode B's full body again and again while A still waits.
	for i := 0; i < 16; i++ {
		resp := postRaw(t, srv, ContentTypeBinary, bodyB)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("B: status %d", resp.StatusCode)
		}
	}

	close(gate.open)
	if err := <-heldDone; err != nil {
		t.Fatal(err)
	}
	res := <-joined
	if res.err != nil {
		t.Fatalf("A's waiting caller: %v", res.err)
	}
	if got := keysOf(res.rep); got != want {
		t.Fatalf("A's run read storage reused by later requests:\n got %s\nwant %s", got, want)
	}
}
