package shardrpc

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"bellflower/internal/cluster"
	"bellflower/internal/labeling"
	"bellflower/internal/matcher"
	"bellflower/internal/pipeline"
	"bellflower/internal/schema"
	"bellflower/internal/serve"
)

// testShard is one hosted shard with its httptest server and the
// CLIENT-side state — an independent repository copy with its own index
// and views, the way a real router process holds them.
type testShard struct {
	host       *ShardServer
	srv        *httptest.Server
	rs         *RemoteShard
	set        *ReplicaSet // the one-replica shard backend over rs
	clientRepo *schema.Repository
	clientIx   *labeling.Index
	clientView *labeling.View
}

// viewRunner builds a runner scoped to v with a name index of its own.
func viewRunner(v *labeling.View) *pipeline.Runner {
	return pipeline.NewViewRunnerWithNameIndex(v, matcher.NewNameIndex(v.Repository()))
}

func shardUnderTest(t *testing.T) *testShard {
	t.Helper()
	serverRepo := testRepo(t, 400, 17)
	six := labeling.NewIndex(serverRepo)
	sviews := serve.PartitionRepositoryViews(six, 2, serve.PartitionClustered)
	svc := serve.New(viewRunner(sviews[0]), serve.Config{Workers: 2})
	host := NewShardServer(svc, sviews[0], ViewDescriptor(sviews[0], 0, 2, serve.PartitionClustered))
	t.Cleanup(host.Close)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/shard/match", host.HandleMatch)
	mux.HandleFunc("/v1/shard/stats", host.HandleStats)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	clientRepo := testRepo(t, 400, 17)
	cix := labeling.NewIndex(clientRepo)
	cviews := serve.PartitionRepositoryViews(cix, 2, serve.PartitionClustered)
	rs := NewRemoteShard(srv.URL, cviews[0], ViewDescriptor(cviews[0], 0, 2, serve.PartitionClustered), RemoteShardConfig{})
	return &testShard{host: host, srv: srv, rs: rs, set: NewReplicaSet([]*RemoteShard{rs}, serve.HealthConfig{}),
		clientRepo: clientRepo, clientIx: cix, clientView: cviews[0]}
}

func postMatch(t *testing.T, srv *httptest.Server, req MatchRequest) *http.Response {
	t.Helper()
	return postRaw(t, srv, ContentTypeBinary, EncodeBinaryMatchRequest(&req))
}

// TestShardServerRejections pins the protocol's failure statuses: wrong
// method, malformed body, mismatched descriptor, malformed tree, signature
// drift, and a closed service (media type and staging flags:
// TestShardServerContentType).
func TestShardServerRejections(t *testing.T) {
	ts := shardUnderTest(t)
	host, srv, rs, set := ts.host, ts.srv, ts.rs, ts.set
	personal := schema.MustParseSpec("book(title,author)")
	goodOpts, err := EncodeOptions(pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	good := MatchRequest{
		Descriptor: host.desc,
		Personal:   EncodeTree(personal),
		Options:    goodOpts,
	}

	if resp, err := http.Get(srv.URL + "/v1/shard/match"); err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET match: %v %v, want 405", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Post(srv.URL+"/v1/shard/stats", "application/json", nil); err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST stats: %v %v, want 405", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
	if resp := postRaw(t, srv, ContentTypeBinary, EncodeBinaryMatchRequest(&good)[:9]); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated body: %d, want 400", resp.StatusCode)
	}

	doctored := good
	doctored.Descriptor.Shard = 1
	if resp := postMatch(t, srv, doctored); resp.StatusCode != http.StatusConflict {
		t.Errorf("descriptor mismatch: %d, want 409", resp.StatusCode)
	}

	badTree := good
	badTree.Personal = WireTree{Name: "broken", Nodes: []WireNode{{Depth: 3, Name: "x"}}}
	if resp := postMatch(t, srv, badTree); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed tree: %d, want 400", resp.StatusCode)
	}

	drifted := good
	drifted.Signature = "not-the-real-signature"
	if resp := postMatch(t, srv, drifted); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("signature drift: %d, want 400", resp.StatusCode)
	}

	badOpts := good
	badOpts.Options.Matcher = "no-such-matcher"
	if resp := postMatch(t, srv, badOpts); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown matcher: %d, want 400", resp.StatusCode)
	}

	// Accessors, for completeness of the host surface.
	if host.Service() == nil || rs.base != srv.URL || !rs.desc.Equal(host.desc) {
		t.Error("host/client accessors inconsistent")
	}

	// A closed shard service answers 503, and the client maps it back to
	// serve.ErrClosed.
	host.Close()
	if resp := postMatch(t, srv, good); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("closed service: %d, want 503", resp.StatusCode)
	}
	if _, err := set.MatchStaged(context.Background(), personal, pipeline.DefaultOptions(), serve.Staged{}); !errors.Is(err, serve.ErrClosed) {
		t.Errorf("client error for closed shard = %v, want ErrClosed", err)
	}
	set.Close()
	if _, err := set.MatchStaged(context.Background(), personal, pipeline.DefaultOptions(), serve.Staged{}); !errors.Is(err, serve.ErrClosed) {
		t.Errorf("closed client error = %v, want ErrClosed", err)
	}
}

// TestRemoteShardStagedPaths drives MatchStaged — with the pre-pass
// projection staged, and with nothing staged — over a real HTTP hop and
// checks the responses equal the same calls against an equivalent
// in-process service, including a run with partial mappings, which exercise
// the report codec's -1 (uncovered rank) encoding.
func TestRemoteShardStagedPaths(t *testing.T) {
	ts := shardUnderTest(t)
	rs, set := ts.rs, ts.set
	local := serve.New(viewRunner(ts.clientView), serve.Config{Workers: 2})
	defer local.Close()
	ctx := context.Background()

	personal, opts, staged := stagedFixture(t, ts)
	opts.IncludePartials = true
	// Node pointers differ across repository copies; assertReportsEquivalent
	// compares structurally via path strings and scores.
	want, err := local.MatchStaged(ctx, personal, opts, staged)
	if err != nil {
		t.Fatal(err)
	}
	got, err := set.MatchStaged(ctx, personal, opts, staged)
	if err != nil {
		t.Fatal(err)
	}
	assertReportsEquivalent(t, "staged", got, want)
	if len(want.Partials) == 0 {
		t.Error("fixture produced no partial mappings; the -1 encoding went unexercised")
	}

	// Nothing staged: the remote shard runs its own full pipeline. A fresh
	// request shape, so neither side answers from its report cache.
	full := opts
	full.TopN = 7
	if want, err = local.MatchStaged(ctx, personal, full, serve.Staged{}); err != nil {
		t.Fatal(err)
	}
	if got, err = set.MatchStaged(ctx, personal, full, serve.Staged{}); err != nil {
		t.Fatal(err)
	}
	assertReportsEquivalent(t, "unstaged", got, want)

	// Remote stats reflect the served work and the descriptor handshake: a
	// repeat of the staged request is the shard's report-cache hit.
	if _, err := set.MatchStaged(ctx, personal, opts, staged); err != nil {
		t.Fatal(err)
	}
	if err := rs.Check(ctx); err != nil {
		t.Fatal(err)
	}
	if st := rs.Stats(); st.PipelineRuns != 2 || st.CacheHits != 1 {
		t.Errorf("remote stats report %d runs / %d cache hits, want 2 / 1", st.PipelineRuns, st.CacheHits)
	}
}

// clustersForView keeps the clusters whose elements live in the view's
// trees (clusters never span trees, so membership of the first element
// decides).
func clustersForView(v *labeling.View, cls []*cluster.Cluster) []*cluster.Cluster {
	out := []*cluster.Cluster{}
	for _, cl := range cls {
		if cl.Len() > 0 && v.Contains(cl.Elements[0].Node) {
			out = append(out, cl)
		}
	}
	return out
}

func assertReportsEquivalent(t *testing.T, what string, got, want *pipeline.Report) {
	t.Helper()
	if len(got.Mappings) != len(want.Mappings) || got.MappingElements != want.MappingElements ||
		got.Clusters != want.Clusters || len(got.Partials) != len(want.Partials) {
		t.Fatalf("%s: shape differs: got %d mappings/%d partials, want %d/%d",
			what, len(got.Mappings), len(got.Partials), len(want.Mappings), len(want.Partials))
	}
	for i := range want.Mappings {
		g, w := got.Mappings[i], want.Mappings[i]
		if g.Score != w.Score || !reflect.DeepEqual(g.Sims, w.Sims) {
			t.Fatalf("%s: mapping %d scores differ", what, i)
		}
		for j := range w.Images {
			if g.Images[j].PathString() != w.Images[j].PathString() {
				t.Fatalf("%s: mapping %d image %d differs", what, i, j)
			}
		}
	}
	for i := range want.Partials {
		g, w := got.Partials[i], want.Partials[i]
		if g.Score != w.Score || g.CoveredMask != w.CoveredMask || g.Covered != w.Covered {
			t.Fatalf("%s: partial %d differs", what, i)
		}
		for j := range w.Images {
			switch {
			case w.Images[j] == nil && g.Images[j] != nil, w.Images[j] != nil && g.Images[j] == nil:
				t.Fatalf("%s: partial %d image %d coverage differs", what, i, j)
			case w.Images[j] != nil && g.Images[j].PathString() != w.Images[j].PathString():
				t.Fatalf("%s: partial %d image %d differs", what, i, j)
			}
		}
	}
}
