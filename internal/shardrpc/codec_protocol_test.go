package shardrpc

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"testing"

	"bellflower/internal/matcher"
	"bellflower/internal/pipeline"
	"bellflower/internal/schema"
	"bellflower/internal/serve"
)

// postRaw posts body to the shard match endpoint under the given
// Content-Type ("" sends no header at all).
func postRaw(t *testing.T, srv *httptest.Server, ct string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/shard/match", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// stagedFixture returns a request shape with the router's pre-pass staged
// for ts's shard — the projection-carrying path every router request takes.
func stagedFixture(t *testing.T, ts *testShard) (*schema.Tree, pipeline.Options, serve.Staged) {
	t.Helper()
	personal := schema.MustParseSpec("address(name,email)")
	opts := pipeline.DefaultOptions()
	opts.MinSim = 0.35
	cands := matcher.FindCandidates(personal, ts.clientRepo, matcher.NameMatcher{}, matcher.Config{MinSim: opts.MinSim})
	clusters, iterations, err := pipeline.ComputeClusters(ts.clientIx, cands, opts)
	if err != nil {
		t.Fatal(err)
	}
	return personal, opts, serve.Staged{
		Cands:      cands.Restrict(ts.clientView.Contains),
		Clusters:   clustersForView(ts.clientView, clusters),
		Iterations: iterations,
	}
}

// TestShardServerContentType pins the wire edge of /v1/shard/match: only
// the binary media type is served (anything else, an absent header
// included, is 415 — never guessed at), a body that does not decode as
// the current binary version is 400 (version 1 bodies included: they still
// carried the retired worker-count varint; version 2 bodies: they still
// carried the retired similarity bias and per-element similarities of the
// clusters; and version 3 bodies: they still carried the retired
// search-algorithm, seeding and seed-stride varints), candidates and
// clusters are
// staged together or not at all, success responses are binary and error
// bodies JSON.
func TestShardServerContentType(t *testing.T) {
	ts := shardUnderTest(t)
	personal, opts, staged := stagedFixture(t, ts)
	enc, err := ts.rs.encode(context.Background(), personal, opts, staged)
	if err != nil {
		t.Fatal(err)
	}
	good := enc.req
	if good.Candidates, err = EncodeCandidates(ts.clientView, staged.Cands); err != nil {
		t.Fatal(err)
	}
	if good.Clusters, err = EncodeClusters(ts.clientView, staged.Clusters); err != nil {
		t.Fatal(err)
	}
	binBody := EncodeBinaryMatchRequest(&good)
	jsonBody, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	badVersion := append([]byte{binaryVersion + 1}, binBody[1:]...)
	retiredV1 := append([]byte{1}, binBody[1:]...)
	retiredV2 := append([]byte{2}, binBody[1:]...)
	retiredV3 := append([]byte{3}, binBody[1:]...)
	candsOnly := good
	candsOnly.HasClusters, candsOnly.Clusters = false, nil
	clustersOnly := good
	clustersOnly.HasCandidates, clustersOnly.Candidates = false, nil

	cases := []struct {
		name string
		ct   string
		body []byte
		want int
	}{
		{"unknown media type", "text/plain", binBody, http.StatusUnsupportedMediaType},
		{"unparseable content type", ";;;", binBody, http.StatusUnsupportedMediaType},
		{"absent content type", "", binBody, http.StatusUnsupportedMediaType},
		{"json", "application/json", jsonBody, http.StatusUnsupportedMediaType},
		{"json with charset parameter", "application/json; charset=utf-8", jsonBody, http.StatusUnsupportedMediaType},
		{"json body labeled binary", ContentTypeBinary, jsonBody, http.StatusBadRequest},
		{"bad version byte", ContentTypeBinary, badVersion, http.StatusBadRequest},
		{"retired version 1", ContentTypeBinary, retiredV1, http.StatusBadRequest},
		{"retired version 2", ContentTypeBinary, retiredV2, http.StatusBadRequest},
		{"retired version 3", ContentTypeBinary, retiredV3, http.StatusBadRequest},
		{"candidates without clusters", ContentTypeBinary, EncodeBinaryMatchRequest(&candsOnly), http.StatusBadRequest},
		{"clusters without candidates", ContentTypeBinary, EncodeBinaryMatchRequest(&clustersOnly), http.StatusBadRequest},
		{"binary", ContentTypeBinary, binBody, http.StatusOK},
		{"binary with parameter", ContentTypeBinary + "; v=1", binBody, http.StatusOK},
	}
	for _, tc := range cases {
		resp := postRaw(t, ts.srv, tc.ct, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
			continue
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if tc.want == http.StatusOK {
			if got := resp.Header.Get("Content-Type"); got != ContentTypeBinary {
				t.Errorf("%s: response Content-Type %q, want %q", tc.name, got, ContentTypeBinary)
			}
			if _, err := DecodeBinaryMatchResponse(raw); err != nil {
				t.Errorf("%s: undecodable binary response: %v", tc.name, err)
			}
			continue
		}
		var e errorJSON
		if got := resp.Header.Get("Content-Type"); got != "application/json" || json.Unmarshal(raw, &e) != nil || e.Error == "" {
			t.Errorf("%s: error body %q (%s) is not the JSON error form", tc.name, raw, got)
		}
	}

	// Only bodies that passed the media-type gate are counted, and only as
	// binary.
	wb := ts.host.Stats().WireBytes
	if wb.InBinary == 0 || wb.OutBinary == 0 || wb.InJSON != 0 || wb.OutJSON != 0 {
		t.Errorf("wire byte counters %+v, want binary traffic only", wb)
	}
}

// TestSlimRequestProtocol pins the shard's slim handler on raw bodies. No
// router sends one, but the shard still answers it: a slim request for a
// signature whose report the shard caches → 200 with that report, counted
// as one hit; for an uncached signature → 428 report-needed, one miss;
// without a signature → 400, counted as neither.
func TestSlimRequestProtocol(t *testing.T) {
	ts := shardUnderTest(t)
	personal, opts, staged := stagedFixture(t, ts)
	first, err := ts.set.MatchStaged(context.Background(), personal, opts, staged)
	if err != nil {
		t.Fatal(err)
	}
	if st := ts.host.Stats(); st.ProjectionCacheHits != 0 || st.ProjectionCacheMisses != 0 {
		t.Fatalf("full request counted as slim: hits=%d misses=%d", st.ProjectionCacheHits, st.ProjectionCacheMisses)
	}
	slimFor := func(o pipeline.Options) MatchRequest {
		t.Helper()
		wopts, err := EncodeOptions(o)
		if err != nil {
			t.Fatal(err)
		}
		return MatchRequest{
			Descriptor: ts.host.desc, Personal: EncodeTree(personal),
			Signature: serve.Signature(personal, o), Options: wopts, ProjectionRef: true,
		}
	}

	cached := slimFor(opts)
	resp := postRaw(t, ts.srv, ContentTypeBinary, EncodeBinaryMatchRequest(&cached))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached signature: %d, want 200", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := DecodeBinaryMatchResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := DecodeReport(ts.clientView, mr.Report)
	if err != nil {
		t.Fatal(err)
	}
	assertReportsEquivalent(t, "slim hit", rep, first)
	st := ts.host.Stats()
	if st.ProjectionCacheHits != 1 || st.ProjectionCacheMisses != 0 {
		t.Errorf("cached signature: hits=%d misses=%d, want 1/0", st.ProjectionCacheHits, st.ProjectionCacheMisses)
	}
	if st.Requests != 2 || st.CacheHits != 1 || st.PipelineRuns != 1 {
		t.Errorf("cached signature: requests=%d cache hits=%d runs=%d, want 2/1/1", st.Requests, st.CacheHits, st.PipelineRuns)
	}

	other := opts
	other.TopN = opts.TopN + 3
	uncached := slimFor(other)
	resp = postRaw(t, ts.srv, ContentTypeBinary, EncodeBinaryMatchRequest(&uncached))
	var e errorJSON
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || resp.StatusCode != http.StatusPreconditionRequired ||
		!strings.Contains(e.Error, "report-needed") {
		t.Errorf("uncached signature: %d %q, want 428 report-needed", resp.StatusCode, e.Error)
	}
	if st := ts.host.Stats(); st.ProjectionCacheHits != 1 || st.ProjectionCacheMisses != 1 {
		t.Errorf("uncached signature: hits=%d misses=%d, want 1/1", st.ProjectionCacheHits, st.ProjectionCacheMisses)
	}
	uncached.Signature = ""
	if resp := postRaw(t, ts.srv, ContentTypeBinary, EncodeBinaryMatchRequest(&uncached)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("slim request without signature: %d, want 400", resp.StatusCode)
	}
	if st := ts.host.Stats(); st.ProjectionCacheHits != 1 || st.ProjectionCacheMisses != 1 {
		t.Errorf("slim request without signature counted: hits=%d misses=%d, want 1/1", st.ProjectionCacheHits, st.ProjectionCacheMisses)
	}
}

// TestRemoteShardConnectionReuse pins the dedicated transport: idle-pool
// capacity sized to the fan-out width, and consecutive requests actually
// reusing pooled connections (which requires response bodies to be fully
// drained).
func TestRemoteShardConnectionReuse(t *testing.T) {
	ts := shardUnderTest(t)
	rs := NewRemoteShard(ts.srv.URL, ts.clientView, ts.host.desc, RemoteShardConfig{})
	set := NewReplicaSet([]*RemoteShard{rs}, serve.HealthConfig{})
	defer set.Close()
	tr, ok := rs.hc.Transport.(*http.Transport)
	if !ok {
		t.Fatal("client does not run on a dedicated http.Transport")
	}
	if tr.MaxIdleConnsPerHost != shardConns {
		t.Fatalf("MaxIdleConnsPerHost = %d, want shardConns (%d): the shared default transport's 2 idle slots serialize a shard fan-out", tr.MaxIdleConnsPerHost, shardConns)
	}

	var conns, reused int
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(ci httptrace.GotConnInfo) {
			conns++
			if ci.Reused {
				reused++
			}
		},
	})
	personal, opts, staged := stagedFixture(t, ts)
	const n = 4
	for i := 0; i < n; i++ {
		if _, err := set.MatchStaged(ctx, personal, opts, staged); err != nil {
			t.Fatal(err)
		}
	}
	if conns != n {
		t.Fatalf("%d connections obtained, want %d", conns, n)
	}
	if reused < n-2 {
		t.Errorf("only %d/%d requests reused a pooled connection", reused, conns)
	}
}
