package shardrpc

import (
	"encoding/hex"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// binTestRequest builds a request exercising every section of the binary
// layout: descriptor, tree, signature, hash, options with a cluster
// config, candidate sets (including an empty one), clusters (including a
// negative medoid) and iterations.
func binTestRequest() *MatchRequest {
	cc := WireClusterConfig{JoinThreshold: 3, RemoveBelow: 1, SplitAbove: 9, MaxIterations: 4, Stability: 0.75}
	req := &MatchRequest{
		Descriptor: Descriptor{
			Shard: 1, NumShards: 4, Strategy: "clustered",
			TreeIDs: []int{3, 7, 12}, RepoNodes: 412, RepoHash: "aabbccdd",
		},
		Personal: WireTree{Name: "personal", Nodes: []WireNode{
			{Depth: 0, Name: "book"},
			{Depth: 1, Name: "title", Type: "string"},
			{Depth: 1, Attr: true, Name: "isbn", Type: "string"},
		}},
		Signature: "sig-1",
		Options: WireOptions{
			Alpha: 0.5, K: 2, Threshold: 0.8, MinSim: 0.3, TopN: 5,
			Variant: 2, Matcher: "token", Structure: "path",
			StructureWeight: 0.25,
			IncludePartials: true, OrderClusters: true, AdaptiveTopN: true,
			ClusterConfig: &cc,
		},
		HasCandidates: true,
		Candidates: []WireCandidateSet{
			{Local: []int32{4, 9, 120}, Sims: []float64{0.91, 0.5, 0.25}},
			{}, // a personal node with no candidates: nil arrays
			{Local: []int32{0}, Sims: []float64{1}},
		},
		HasClusters: true,
		Clusters: []WireCluster{
			{ID: 0, TreeID: 2, Medoid: 7, Local: []int32{7, 8}, Masks: []uint64{3, 5}},
			{ID: 1, TreeID: 5, Medoid: -1, Local: []int32{}, Masks: []uint64{}},
		},
		Iterations: 6,
	}
	req.ProjectionHash = ProjectionDigest(req)
	return req
}

// binTestRequests are the request shapes of the codec tests: the full
// request, its slim form, empty-but-present and nil projection lists (the
// digest's canonicalised case and its plain twin), and a request with no
// projection staged.
func binTestRequests() map[string]*MatchRequest {
	full := binTestRequest()
	slim := *full
	slim.ProjectionRef = true
	slim.HasCandidates, slim.Candidates = false, nil
	slim.HasClusters, slim.Clusters = false, nil
	slim.Iterations = 0
	noClusters := *full
	noClusters.Clusters = []WireCluster{}
	nilClusters := *full
	nilClusters.Clusters = nil
	noCandidates := *full
	noCandidates.Candidates = []WireCandidateSet{}
	unstaged := *full
	unstaged.HasCandidates, unstaged.Candidates, unstaged.HasClusters, unstaged.Clusters = false, nil, false, nil
	reqs := map[string]*MatchRequest{
		"full": full, "slim": &slim, "empty clusters": &noClusters, "nil clusters": &nilClusters,
		"empty candidates": &noCandidates, "unstaged": &unstaged,
	}
	for _, r := range reqs {
		if !r.ProjectionRef {
			r.ProjectionHash = ProjectionDigest(r)
		}
	}
	return reqs
}

func binTestResponse() *MatchResponse {
	return &MatchResponse{
		Report: WireReport{
			Variant: 2, MappingElements: 3, Clusters: 4, UsefulClusters: 2,
			AvgElementsPerUsefulCluster: 1.5, ClusterSizes: []int{2, 0, 1, 1}, Iterations: 3,
			Counters: WireCounters{SearchSpace: 128, PartialMappings: 17, CompleteMappings: 4, Found: 4, UsefulClusters: 2},
			Mappings: []WireMapping{
				{Local: []int32{1, 2, 3}, Sims: []float64{1, 0.5, 0.25}, Score: WireScore{Delta: 0.9, Sim: 0.8, Path: 0.7, Et: 3}, ClusterID: 2},
			},
			Partials: []WirePartial{
				{Local: []int32{1, -1, 3}, Sims: []float64{1, 0, 0.25}, CoveredMask: 5, Covered: 2, Score: WireScore{Delta: 0.4, Sim: 0.3, Path: 0.2, Et: 2}, ClusterID: 0},
			},
			MatchNS: 12345, ClusterNS: 678, GenNS: 91011, FirstGoodAfter: 2,
		},
		Spans: []WireSpan{
			{ID: "a1", Parent: "", Name: "shard.serve", StartNS: 100, DurNS: 900, Attrs: []WireAttr{{Key: "k", Value: "v"}}},
			{ID: "b2", Parent: "a1", Name: "stage.match", StartNS: 150, DurNS: 300},
		},
	}
}

// TestBinaryRequestRoundTrip pins exact identity — including nil-vs-empty
// slice distinctions — through the binary codec, and JSON-level
// equivalence between a binary-tripped and a JSON-tripped request.
func TestBinaryRequestRoundTrip(t *testing.T) {
	req := binTestRequest()
	got, err := DecodeBinaryMatchRequest(EncodeBinaryMatchRequest(req))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("binary round trip drifted:\n%+v\nvs\n%+v", got, req)
	}
	// The decoded sets share slabs, each capped at its length, so
	// appending to one cannot overwrite the next.
	for i, s := range got.Candidates {
		if cap(s.Local) != len(s.Local) || cap(s.Sims) != len(s.Sims) {
			t.Errorf("candidate set %d: capacities %d/%d exceed lengths %d/%d", i, cap(s.Local), cap(s.Sims), len(s.Local), len(s.Sims))
		}
	}
	for i, c := range got.Clusters {
		if cap(c.Local) != len(c.Local) || cap(c.Masks) != len(c.Masks) {
			t.Errorf("cluster %d: capacities %d/%d exceed lengths %d/%d", i, cap(c.Local), cap(c.Masks), len(c.Local), len(c.Masks))
		}
	}

	var jsonTripped MatchRequest
	raw, _ := json.Marshal(req)
	if err := json.Unmarshal(raw, &jsonTripped); err != nil {
		t.Fatalf("json: %v", err)
	}
	jb, _ := json.Marshal(jsonTripped)
	bb, _ := json.Marshal(got)
	if string(jb) != string(bb) {
		t.Fatalf("binary- and JSON-tripped requests disagree:\n%s\nvs\n%s", bb, jb)
	}
}

// TestBinaryRequestSlim pins the projection-reference layout: the
// projection section is omitted entirely and comes back zero-valued, with
// the hash and flag intact.
func TestBinaryRequestSlim(t *testing.T) {
	full := binTestRequest()
	slim := *full
	slim.ProjectionRef = true
	slim.HasCandidates, slim.Candidates = false, nil
	slim.HasClusters, slim.Clusters = false, nil
	slim.Iterations = 0

	fullLen := len(EncodeBinaryMatchRequest(full))
	b := EncodeBinaryMatchRequest(&slim)
	if len(b) >= fullLen {
		t.Fatalf("slim body (%d bytes) not smaller than full body (%d bytes)", len(b), fullLen)
	}
	got, err := DecodeBinaryMatchRequest(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !got.ProjectionRef || got.ProjectionHash != full.ProjectionHash {
		t.Fatalf("slim request lost its reference: ref=%v hash=%q", got.ProjectionRef, got.ProjectionHash)
	}
	if got.HasCandidates || got.Candidates != nil || got.HasClusters || got.Clusters != nil || got.Iterations != 0 {
		t.Fatalf("slim request grew a projection: %+v", got)
	}
}

func TestBinaryResponseRoundTrip(t *testing.T) {
	resp := binTestResponse()
	got, err := DecodeBinaryMatchResponse(EncodeBinaryMatchResponse(resp))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, resp) {
		t.Fatalf("binary round trip drifted:\n%+v\nvs\n%+v", got, resp)
	}
}

// TestBinaryBodiesPinned pins the version-4 bytes of binTestRequest (full
// and slim) and binTestResponse, and two digests, so a change to the
// encoders cannot move the wire format unnoticed.
func TestBinaryBodiesPinned(t *testing.T) {
	reqs := binTestRequests()
	pins := []struct {
		name string
		got  []byte
		want string
	}{
		{"full request", EncodeBinaryMatchRequest(reqs["full"]), "0400020809636c7573746572656404060e18b80608616162626363646408706572736f6e616c04000004626f6f6b000200057469746c6506737472696e670201046973626e06737472696e67057369672d31203335626664353066383939636638386266373433383130653335633335613663000000000000e03f00000000000000409a9999999999e93f333333333333d33f0a0405746f6b656e0470617468000000000000d03f0b0106021208000000000000e83f0104040812f001041f85eb51b81eed3f000000000000e03f000000000000d03f0000020002000000000000f03f010300040e030e10030305020a0101010c"},
		{"slim request", EncodeBinaryMatchRequest(reqs["slim"]), "0401020809636c7573746572656404060e18b80608616162626363646408706572736f6e616c04000004626f6f6b000200057469746c6506737472696e670201046973626e06737472696e67057369672d31203335626664353066383939636638386266373433383130653335633335613663000000000000e03f00000000000000409a9999999999e93f333333333333d33f0a0405746f6b656e0470617468000000000000d03f0b0106021208000000000000e83f"},
		{"response", EncodeBinaryMatchResponse(binTestResponse()), "0404060804000000000000f83f050400020206000000000000604022080804020402040604000000000000f03f000000000000e03f000000000000d03fcdccccccccccec3f9a9999999999e93f666666666666e63f0604020402010604000000000000f03f0000000000000000000000000000d03f05049a9999999999d93f333333333333d33f9a9999999999c93f0400f2c001cc0a868e0b0403026131000b73686172642e7365727665c801880e02016b01760262320261310b73746167652e6d61746368ac02d80400"},
	}
	for _, p := range pins {
		if got := hex.EncodeToString(p.got); got != p.want {
			t.Errorf("%s:\n got %s\nwant %s", p.name, got, p.want)
		}
	}
	if d := reqs["full"].ProjectionHash; d != "35bfd50f899cf88bf743810e35c35a6c" {
		t.Errorf("digest %s moved", d)
	}
	if d := reqs["empty clusters"].ProjectionHash; d != "25499f3d79815f2ca3810f75d8198fbf" {
		t.Errorf("empty-clusters digest %s moved", d)
	}
}

// TestBinaryRequestNeverRegrows: a request body is written into the one
// buffer EncodeBinaryMatchRequest sizes for it — the projection's exact size
// plus the header's bound — so encoding it allocates once.
func TestBinaryRequestNeverRegrows(t *testing.T) {
	for name, req := range binTestRequests() {
		if allocs := testing.AllocsPerRun(20, func() { EncodeBinaryMatchRequest(req) }); allocs != 1 {
			t.Errorf("%s: %v allocations per encode, want 1", name, allocs)
		}
		b := EncodeBinaryMatchRequest(req)
		header := len(b)
		if !req.ProjectionRef {
			header -= projectionSize(req)
		}
		if header > headerBound(req) {
			t.Errorf("%s: %d-byte header over its %d-byte bound (%d-byte body)", name, header, headerBound(req), len(b))
		}
	}
}

// TestBinaryDecodeErrors drives the decoders through every truncation
// point of valid bodies plus version and trailing-byte violations: all
// must fail cleanly, never panic, never succeed.
func TestBinaryDecodeErrors(t *testing.T) {
	reqBody := EncodeBinaryMatchRequest(binTestRequest())
	respBody := EncodeBinaryMatchResponse(binTestResponse())

	for n := 0; n < len(reqBody); n++ {
		if _, err := DecodeBinaryMatchRequest(reqBody[:n]); err == nil {
			t.Fatalf("request truncated to %d/%d bytes decoded successfully", n, len(reqBody))
		}
	}
	for n := 0; n < len(respBody); n++ {
		if _, err := DecodeBinaryMatchResponse(respBody[:n]); err == nil {
			t.Fatalf("response truncated to %d/%d bytes decoded successfully", n, len(respBody))
		}
	}

	bad := append([]byte{}, reqBody...)
	bad[0] = binaryVersion + 1
	if _, err := DecodeBinaryMatchRequest(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version accepted: %v", err)
	}
	if _, err := DecodeBinaryMatchRequest(append(append([]byte{}, reqBody...), 0)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing bytes accepted: %v", err)
	}
	if _, err := DecodeBinaryMatchResponse(append(append([]byte{}, respBody...), 0)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing bytes accepted: %v", err)
	}
}

// TestProjectionDigest pins the content address: codec-independent, stable
// across the JSON transport's empty-vs-nil folding, and sensitive to the
// payload it covers.
func TestProjectionDigest(t *testing.T) {
	req := binTestRequest()
	d := ProjectionDigest(req)
	if d == "" || d != req.ProjectionHash {
		t.Fatalf("digest %q, want the request's own %q", d, req.ProjectionHash)
	}

	// Survives both transports.
	bin, err := DecodeBinaryMatchRequest(EncodeBinaryMatchRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if got := ProjectionDigest(bin); got != d {
		t.Fatalf("digest drifted over binary: %q vs %q", got, d)
	}
	var js MatchRequest
	raw, _ := json.Marshal(req)
	if err := json.Unmarshal(raw, &js); err != nil {
		t.Fatal(err)
	}
	if got := ProjectionDigest(&js); got != d {
		t.Fatalf("digest drifted over JSON: %q vs %q", got, d)
	}

	// An empty-but-present cluster list hashes like a nil one: JSON's
	// omitempty cannot ship the distinction, so the digest must not
	// depend on it.
	a, b := *req, *req
	a.Clusters = []WireCluster{}
	b.Clusters = nil
	if ProjectionDigest(&a) != ProjectionDigest(&b) {
		t.Fatal("digest distinguishes empty from nil clusters; JSON transport would break it")
	}

	// Any payload change moves the digest.
	mutated := *req
	mutated.Iterations++
	if ProjectionDigest(&mutated) == d {
		t.Fatal("digest ignored an iterations change")
	}
	mutated = *req
	mutated.Candidates = append([]WireCandidateSet(nil), req.Candidates...)
	mutated.Candidates[0] = WireCandidateSet{Local: []int32{4, 9, 121}, Sims: []float64{0.91, 0.5, 0.25}}
	if ProjectionDigest(&mutated) == d {
		t.Fatal("digest ignored a candidate change")
	}

	// ...but fields outside the projection do not.
	renamed := *req
	renamed.Signature = "other"
	renamed.Descriptor.Shard = 3
	if ProjectionDigest(&renamed) != d {
		t.Fatal("digest depends on non-projection fields")
	}
}
