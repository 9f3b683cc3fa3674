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
	"reflect"
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
// for ts's shard — the projection-carrying path the cache protocol runs on.
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
	candsOnly.HasClusters, candsOnly.Clusters, candsOnly.ProjectionHash = false, nil, ""
	clustersOnly := good
	clustersOnly.HasCandidates, clustersOnly.Candidates, clustersOnly.ProjectionHash = false, nil, ""

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

// TestProjectionCacheProtocol drives the content-addressed projection
// flow end to end: a full staged request teaches both sides the digest,
// the repeat goes out slim and resolves from the shard's cache, and a
// shard restart (empty cache, client still believes) recovers through the
// 428 protocol turn inside the same attempt.
func TestProjectionCacheProtocol(t *testing.T) {
	ts := shardUnderTest(t)
	rs, set := ts.rs, ts.set
	personal, opts, staged := stagedFixture(t, ts)

	first, err := set.MatchStaged(context.Background(), personal, opts, staged)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := rs.encode(context.Background(), personal, opts, staged)
	if err != nil {
		t.Fatal(err)
	}
	if enc.hash == "" {
		t.Fatal("staged request carries no projection digest")
	}
	if !rs.knowsProjection(enc.hash) {
		t.Fatal("client did not learn the digest from a served full request")
	}
	if st := ts.host.Stats(); st.ProjectionCacheHits != 0 || st.ProjectionCacheMisses != 0 {
		t.Fatalf("full request touched the projection cache: hits=%d misses=%d", st.ProjectionCacheHits, st.ProjectionCacheMisses)
	}
	fullLen, slimLen := len(mustBody(t, enc, false)), len(mustBody(t, enc, true))
	if slimLen >= fullLen {
		t.Fatalf("slim body (%d bytes) not smaller than full (%d bytes)", slimLen, fullLen)
	}

	second, err := set.MatchStaged(context.Background(), personal, opts, staged)
	if err != nil {
		t.Fatal(err)
	}
	assertReportsEquivalent(t, "slim repeat", second, first)
	st := ts.host.Stats()
	if st.ProjectionCacheHits != 1 || st.ProjectionCacheMisses != 0 {
		t.Errorf("slim repeat: hits=%d misses=%d, want 1/0", st.ProjectionCacheHits, st.ProjectionCacheMisses)
	}
	// Exactly one full and one slim binary body arrived — the repeat
	// really did skip the projection payload on the wire.
	if got, want := st.WireBytes.InBinary, int64(fullLen+slimLen); got != want {
		t.Errorf("shard saw %d binary request bytes, want %d (full %d + slim %d)", got, want, fullLen, slimLen)
	}

	// Shard restart: fresh process, empty cache; the client still believes
	// the digest is cached. The slim request bounces 428 and the client
	// resends the full payload on the same endpoint, in the same attempt.
	ts2 := shardUnderTest(t)
	rs2 := NewRemoteShard(ts2.srv.URL, ts.clientView, ts2.host.desc, RemoteShardConfig{})
	set2 := NewReplicaSet([]*RemoteShard{rs2}, serve.HealthConfig{})
	defer set2.Close()
	rs2.markProjection(enc.hash) // stale knowledge, as after a shard restart
	third, err := set2.MatchStaged(context.Background(), personal, opts, staged)
	if err != nil {
		t.Fatalf("projection-needed turn did not recover: %v", err)
	}
	assertReportsEquivalent(t, "428 recovery", third, first)
	if st2 := ts2.host.Stats(); st2.ProjectionCacheMisses != 1 {
		t.Errorf("restart: misses = %d, want exactly the bounced slim request", st2.ProjectionCacheMisses)
	}
	if n := set2.unreachables.Load(); n != 0 {
		t.Errorf("protocol turn charged %d unreachable requests", n)
	}
	if !rs2.knowsProjection(enc.hash) {
		t.Error("digest not re-learned after the full resend")
	}
	if _, err := set2.MatchStaged(context.Background(), personal, opts, staged); err != nil {
		t.Fatal(err)
	}
	if st2 := ts2.host.Stats(); st2.ProjectionCacheHits != 1 {
		t.Errorf("post-recovery repeat: hits = %d, want 1", st2.ProjectionCacheHits)
	}

	// Raw protocol pins: unknown digest → 428; reference without a digest
	// → 400; full payload whose digest does not match its claim → 400 (a
	// corrupt projection must never be cached under the wrong address).
	wopts, err := EncodeOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	slim := MatchRequest{
		Descriptor: ts2.host.desc, Personal: EncodeTree(personal),
		Signature: serve.Signature(personal, opts), Options: wopts,
		ProjectionRef: true, ProjectionHash: "no-such-digest",
	}
	if resp := postRaw(t, ts2.srv, ContentTypeBinary, EncodeBinaryMatchRequest(&slim)); resp.StatusCode != http.StatusPreconditionRequired {
		t.Errorf("unknown digest: %d, want 428", resp.StatusCode)
	}
	slim.ProjectionHash = ""
	if resp := postRaw(t, ts2.srv, ContentTypeBinary, EncodeBinaryMatchRequest(&slim)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("reference without digest: %d, want 400", resp.StatusCode)
	}
	forged := enc.req
	forged.ProjectionHash = "forged"
	if resp := postRaw(t, ts2.srv, ContentTypeBinary, EncodeBinaryMatchRequest(&forged)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("digest mismatch: %d, want 400", resp.StatusCode)
	}

	// The digest is checked over the bytes received, not over a re-encoding
	// of what they decode to: a projection whose last varint (Iterations) is
	// padded to a non-minimal two bytes decodes to the valid structs under
	// the valid claim, yet is a 400 — and is not cached, so a fresh shard
	// still answers a reference to that digest 428.
	valid := EncodeBinaryMatchRequest(&enc.req)
	last := valid[len(valid)-1]
	if last >= 0x80 {
		t.Fatalf("Iterations varint ends in %#x, not a one-byte varint", last)
	}
	padded := append(valid[:len(valid)-1:len(valid)-1], last|0x80, 0x00)
	want, err := DecodeBinaryMatchRequest(valid)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeBinaryMatchRequest(padded); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("padded body does not decode to the valid request: %v", err)
	}
	ts3 := shardUnderTest(t)
	resp := postRaw(t, ts3.srv, ContentTypeBinary, padded)
	var e errorJSON
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(e.Error, "projection digest mismatch") {
		t.Errorf("padded projection: %d %q, want 400 projection digest mismatch", resp.StatusCode, e.Error)
	}
	slim.ProjectionHash = enc.hash
	if resp := postRaw(t, ts3.srv, ContentTypeBinary, EncodeBinaryMatchRequest(&slim)); resp.StatusCode != http.StatusPreconditionRequired {
		t.Errorf("reference after the rejected padded body: %d, want 428 (nothing cached)", resp.StatusCode)
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

// TestProjKnownBounded: the client's memory of which projections a shard
// holds is capped — ten caps' worth of distinct projections never leaves
// more than maxKnownProjections digests behind, and every request is still
// answered (a forgotten digest costs one full-payload send, never an error).
func TestProjKnownBounded(t *testing.T) {
	ts := shardUnderTest(t)
	rs, set := ts.rs, ts.set
	personal, opts, staged := stagedFixture(t, ts)
	ctx := context.Background()

	// Real round trips across the boundary where the set is cleared; the
	// iteration count is part of the digest, so each request is a distinct
	// projection (and, being outside the signature, a report-cache hit on
	// the shard after the first).
	for i := 0; i < maxKnownProjections-2; i++ {
		rs.markProjection(fmt.Sprintf("filler-%d", i))
	}
	for i := 0; i < 5; i++ {
		staged.Iterations = 1000 + i
		if _, err := set.MatchStaged(ctx, personal, opts, staged); err != nil {
			t.Fatalf("request %d across the cap: %v", i, err)
		}
		if n := len(rs.projKnown); n > maxKnownProjections {
			t.Fatalf("projKnown holds %d digests after request %d, cap %d", n, i, maxKnownProjections)
		}
	}
	// The latest digest survived the clear, so its repeat goes out slim.
	hits := ts.host.Stats().ProjectionCacheHits
	if _, err := set.MatchStaged(ctx, personal, opts, staged); err != nil {
		t.Fatal(err)
	}
	if got := ts.host.Stats().ProjectionCacheHits; got != hits+1 {
		t.Errorf("repeat after the clear: projection cache hits %d → %d, want a slim request", hits, got)
	}

	// Ten caps' worth of distinct digests.
	for i := 0; i < 10*maxKnownProjections; i++ {
		rs.markProjection(fmt.Sprintf("digest-%d", i))
		if n := len(rs.projKnown); n > maxKnownProjections {
			t.Fatalf("projKnown holds %d digests after %d marks, cap %d", n, i+1, maxKnownProjections)
		}
	}
	// A digest the clear forgot is simply sent in full again.
	if _, err := set.MatchStaged(ctx, personal, opts, staged); err != nil {
		t.Fatalf("request after its digest was forgotten: %v", err)
	}
}
