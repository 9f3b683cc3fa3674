package shardrpc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
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
// for ts's shard — the projection-carrying path the slim protocol runs on.
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

// mustBody returns the encoded request's body in the given shape.
func mustBody(t *testing.T, enc *encodedRequest, slim bool) []byte {
	t.Helper()
	b, err := enc.body(slim)
	if err != nil {
		t.Fatal(err)
	}
	return b
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

// TestSlimRequestProtocol drives the slim request end to end: a full staged
// request teaches the client that the shard answered its signature, the
// repeat goes out slim and the shard answers it from its report cache, and a
// shard restart (empty cache, client still believes) recovers through the
// 428 protocol turn inside the same attempt.
func TestSlimRequestProtocol(t *testing.T) {
	ts := shardUnderTest(t)
	rs, set := ts.rs, ts.set
	personal, opts, staged := stagedFixture(t, ts)
	ctx := context.Background()

	first, err := set.MatchStaged(ctx, personal, opts, staged)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := rs.encode(ctx, personal, opts, staged)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.hasAnswered(enc.req.Signature) {
		t.Fatal("client did not learn the signature from a served full request")
	}
	if enc.full != nil || enc.req.Candidates != nil {
		t.Fatal("encoding an answered signature built the full body")
	}
	if st := ts.host.Stats(); st.ProjectionCacheHits != 0 || st.ProjectionCacheMisses != 0 {
		t.Fatalf("full request counted as slim: hits=%d misses=%d", st.ProjectionCacheHits, st.ProjectionCacheMisses)
	}
	fullLen, slimLen := len(mustBody(t, enc, false)), len(mustBody(t, enc, true))
	if slimLen >= fullLen {
		t.Fatalf("slim body (%d bytes) not smaller than full (%d bytes)", slimLen, fullLen)
	}

	second, err := set.MatchStaged(ctx, personal, opts, staged)
	if err != nil {
		t.Fatal(err)
	}
	assertReportsEquivalent(t, "slim repeat", second, first)
	st := ts.host.Stats()
	if st.ProjectionCacheHits != 1 || st.ProjectionCacheMisses != 0 {
		t.Errorf("slim repeat: hits=%d misses=%d, want 1/0", st.ProjectionCacheHits, st.ProjectionCacheMisses)
	}
	// The repeat was the report cache's: one run, one hit, two requests.
	if st.Requests != 2 || st.CacheHits != 1 || st.PipelineRuns != 1 {
		t.Errorf("slim repeat: requests=%d cache hits=%d runs=%d, want 2/1/1", st.Requests, st.CacheHits, st.PipelineRuns)
	}
	// Exactly one full and one slim binary body arrived — the repeat
	// really did skip the projection payload on the wire.
	if got, want := st.WireBytes.InBinary, int64(fullLen+slimLen); got != want {
		t.Errorf("shard saw %d binary request bytes, want %d (full %d + slim %d)", got, want, fullLen, slimLen)
	}

	// Shard restart: fresh process, empty cache; the client still believes
	// the signature is answered. The slim request bounces 428 and the client
	// resends the full request on the same replica, in the same attempt.
	ts2 := shardUnderTest(t)
	rs2 := NewRemoteShard(ts2.srv.URL, ts.clientView, ts2.host.desc, RemoteShardConfig{})
	set2 := NewReplicaSet([]*RemoteShard{rs2}, serve.HealthConfig{})
	defer set2.Close()
	rs2.markAnswered(enc.req.Signature) // stale knowledge, as after a shard restart
	third, err := set2.MatchStaged(ctx, personal, opts, staged)
	if err != nil {
		t.Fatalf("report-needed turn did not recover: %v", err)
	}
	assertReportsEquivalent(t, "428 recovery", third, first)
	if st2 := ts2.host.Stats(); st2.ProjectionCacheMisses != 1 || st2.ProjectionCacheHits != 0 || st2.PipelineRuns != 1 {
		t.Errorf("restart: misses=%d hits=%d runs=%d, want exactly the bounced slim request and one run",
			st2.ProjectionCacheMisses, st2.ProjectionCacheHits, st2.PipelineRuns)
	}
	if n, f := set2.unreachables.Load(), set2.failovers.Load(); n != 0 || f != 0 {
		t.Errorf("protocol turn charged %d unreachable requests and %d failovers", n, f)
	}
	if !set2.mons[0].Healthy() {
		t.Error("protocol turn marked the replica unhealthy")
	}
	if !rs2.hasAnswered(enc.req.Signature) {
		t.Error("signature not re-learned after the full resend")
	}
	if _, err := set2.MatchStaged(ctx, personal, opts, staged); err != nil {
		t.Fatal(err)
	}
	if st2 := ts2.host.Stats(); st2.ProjectionCacheHits != 1 {
		t.Errorf("post-recovery repeat: hits = %d, want 1", st2.ProjectionCacheHits)
	}

	// Raw protocol pins: a slim request for a signature the shard has not
	// cached → 428, counted as one miss; a slim request without a
	// signature → 400, counted as nothing.
	other := opts
	other.TopN = opts.TopN + 3
	wopts, err := EncodeOptions(other)
	if err != nil {
		t.Fatal(err)
	}
	slim := MatchRequest{
		Descriptor: ts2.host.desc, Personal: EncodeTree(personal),
		Signature: serve.Signature(personal, other), Options: wopts, ProjectionRef: true,
	}
	misses := ts2.host.Stats().ProjectionCacheMisses
	resp := postRaw(t, ts2.srv, ContentTypeBinary, EncodeBinaryMatchRequest(&slim))
	var e errorJSON
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || resp.StatusCode != http.StatusPreconditionRequired ||
		!strings.Contains(e.Error, "report-needed") {
		t.Errorf("uncached signature: %d %q, want 428 report-needed", resp.StatusCode, e.Error)
	}
	if got := ts2.host.Stats().ProjectionCacheMisses; got != misses+1 {
		t.Errorf("uncached signature: misses %d → %d, want one more", misses, got)
	}
	slim.Signature = ""
	if resp := postRaw(t, ts2.srv, ContentTypeBinary, EncodeBinaryMatchRequest(&slim)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("slim request without signature: %d, want 400", resp.StatusCode)
	}
	if got := ts2.host.Stats().ProjectionCacheMisses; got != misses+1 {
		t.Errorf("slim request without signature counted as a miss: %d", got)
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

// TestAnsweredBounded: the client's memory of which signatures a shard
// answered is capped — ten caps' worth of distinct signatures never leaves
// more than maxAnswered behind, and every request is still answered (a
// forgotten signature costs one full send, never an error).
func TestAnsweredBounded(t *testing.T) {
	ts := shardUnderTest(t)
	rs, set := ts.rs, ts.set
	personal, opts, staged := stagedFixture(t, ts)
	ctx := context.Background()

	// Real round trips across the boundary where the set is cleared; the
	// result count is part of the signature, so each request is a distinct
	// report on the shard.
	for i := 0; i < maxAnswered-2; i++ {
		rs.markAnswered(fmt.Sprintf("filler-%d", i))
	}
	for i := 0; i < 5; i++ {
		opts.TopN = 3 + i
		if _, err := set.MatchStaged(ctx, personal, opts, staged); err != nil {
			t.Fatalf("request %d across the cap: %v", i, err)
		}
		if n := len(rs.answered); n > maxAnswered {
			t.Fatalf("answered holds %d signatures after request %d, cap %d", n, i, maxAnswered)
		}
	}
	// The latest signature survived the clear, so its repeat goes out slim.
	hits := ts.host.Stats().ProjectionCacheHits
	if _, err := set.MatchStaged(ctx, personal, opts, staged); err != nil {
		t.Fatal(err)
	}
	if got := ts.host.Stats().ProjectionCacheHits; got != hits+1 {
		t.Errorf("repeat after the clear: slim hits %d → %d, want a slim request", hits, got)
	}

	// Ten caps' worth of distinct signatures.
	for i := 0; i < 10*maxAnswered; i++ {
		rs.markAnswered(fmt.Sprintf("sig-%d", i))
		if n := len(rs.answered); n > maxAnswered {
			t.Fatalf("answered holds %d signatures after %d marks, cap %d", n, i+1, maxAnswered)
		}
	}
	// A signature the clear forgot is simply sent in full again.
	if _, err := set.MatchStaged(ctx, personal, opts, staged); err != nil {
		t.Fatalf("request after its signature was forgotten: %v", err)
	}
}
