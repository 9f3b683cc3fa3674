package shardrpc

import (
	"encoding/json"
	"reflect"
	"testing"

	"bellflower/internal/cluster"
	"bellflower/internal/labeling"
	"bellflower/internal/matcher"
	"bellflower/internal/pipeline"
	"bellflower/internal/repogen"
	"bellflower/internal/schema"
	"bellflower/internal/serve"
	"bellflower/internal/strsim"
)

func testRepo(t testing.TB, nodes int, seed int64) *schema.Repository {
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

func TestTreeCodecRoundTrip(t *testing.T) {
	specs := []string{
		"book(title,author)",
		"lib(address,book(authorName:string,data(title),shelf,isbn@))",
		"a(b:integer,c@(unused_never),d(e(f(g))))",
		"weird(name with spaces,quo\"te@)",
	}
	for _, spec := range specs {
		orig, err := schema.ParseSpec(spec)
		if err != nil {
			// Specs with exotic characters may not parse; build by hand below.
			continue
		}
		got, err := DecodeTree(EncodeTree(orig))
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if got.String() != orig.String() || got.Len() != orig.Len() {
			t.Errorf("%s: round trip %q != %q", spec, got, orig)
		}
		for i, n := range orig.Nodes() {
			g := got.NodeAt(i)
			if g.Name != n.Name || g.Kind != n.Kind || g.Type != n.Type || g.Depth != n.Depth {
				t.Errorf("%s node %d: %+v != %+v", spec, i, g, n)
			}
		}
	}

	// Arbitrary names and types must survive JSON + the codec.
	b := schema.NewBuilder("tree \"x\"\nwith newline")
	root := b.Root(`na"me`)
	b.TypedAttribute(root, "attr\twith\ttabs", "ty\"pe")
	b.TypedElement(root, "élan", "日本語")
	orig := b.MustTree()
	raw, err := json.Marshal(EncodeTree(orig))
	if err != nil {
		t.Fatal(err)
	}
	var wt WireTree
	if err := json.Unmarshal(raw, &wt); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTree(wt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name || got.String() != orig.String() {
		t.Errorf("exotic tree round trip: %q != %q", got, orig)
	}

	// Malformed wire trees must be rejected, not crash.
	bad := []WireTree{
		{Name: "empty"},
		{Name: "gap", Nodes: []WireNode{{Depth: 0, Name: "r"}, {Depth: 2, Name: "x"}}},
		{Name: "tworoots", Nodes: []WireNode{{Depth: 0, Name: "r"}, {Depth: 0, Name: "s"}}},
		{Name: "attr-root", Nodes: []WireNode{{Depth: 0, Name: "r", Attr: true}}},
		{Name: "neg", Nodes: []WireNode{{Depth: -1, Name: "r"}}},
	}
	for _, wt := range bad {
		if _, err := DecodeTree(wt); err == nil {
			t.Errorf("DecodeTree(%s) accepted a malformed tree", wt.Name)
		}
	}
}

func TestOptionsCodecRoundTrip(t *testing.T) {
	cc := cluster.DefaultConfig()
	cc.SplitAbove = 17
	cases := []pipeline.Options{
		pipeline.DefaultOptions(),
		{Threshold: 0.5, MinSim: 0.3, TopN: 7, Variant: pipeline.VariantTree,
			//lint:ignore SA1019 the deprecated field must still round-trip
			Matcher: matcher.NameMatcher{TokenAware: true}, OrderClusters: true, AdaptiveTopN: true},
		{Threshold: 0.9, Variant: pipeline.VariantLarge, Matcher: matcher.TypeMatcher{},
			StructureMatcher: matcher.PathContextMatcher{}, StructureWeight: 0.25},
		{Variant: pipeline.VariantSmall, Matcher: matcher.DefaultSynonyms(),
			Agglomerative: true, IncludePartials: true, ClusterConfig: &cc},
	}
	for i, o := range cases {
		o.Objective.Alpha, o.Objective.K = 0.25, 3
		w, err := EncodeOptions(o)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		raw, err := json.Marshal(w)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		var w2 WireOptions
		if err := json.Unmarshal(raw, &w2); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		got, err := DecodeOptions(w2)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, o) {
			t.Errorf("case %d: decode(encode(o)) =\n%+v, want\n%+v", i, got, o)
		}
		// The canonical request signature must survive the codec: that is
		// the integrity check the shard server enforces per request.
		personal := schema.MustParseSpec("book(title,author)")
		if sa, sb := serve.Signature(personal, o), serve.Signature(personal, got); sa != sb {
			t.Errorf("case %d: signature drifted across the codec:\n%s\n%s", i, sa, sb)
		}
	}

	// Matchers without a wire name must refuse to encode.
	notEncodable := []pipeline.Options{
		{Matcher: matcher.NameMatcher{Metric: strsim.MetricJaroWinkler}},
		{Matcher: matcher.NewSynonymMatcher([]string{"a", "b"})},
		{StructureMatcher: matcher.NameMatcher{}},
	}
	for i, o := range notEncodable {
		if _, err := EncodeOptions(o); err == nil {
			t.Errorf("case %d: non-wire matcher encoded silently", i)
		}
	}
}

func TestDescriptorEqual(t *testing.T) {
	repo := testRepo(t, 300, 3)
	ix := labeling.NewIndex(repo)
	views := serve.PartitionRepositoryViews(ix, 3, serve.PartitionClustered)
	d0 := ViewDescriptor(views[0], 0, 3, serve.PartitionClustered)
	if !d0.Equal(d0) {
		t.Fatal("descriptor not equal to itself")
	}
	// A second identical repository copy produces an equal descriptor —
	// the property distributed serving rests on.
	repo2 := testRepo(t, 300, 3)
	views2 := serve.PartitionRepositoryViews(labeling.NewIndex(repo2), 3, serve.PartitionClustered)
	if d := ViewDescriptor(views2[0], 0, 3, serve.PartitionClustered); !d0.Equal(d) {
		t.Errorf("identical repository copies disagree: %s vs %s", d0, d)
	}
	// Any topology difference must break equality.
	if d := ViewDescriptor(views[1], 1, 3, serve.PartitionClustered); d0.Equal(d) {
		t.Error("different shards compare equal")
	}
	if d := ViewDescriptor(views2[0], 0, 3, serve.PartitionBalanced); d0.Equal(d) {
		t.Error("different strategies compare equal")
	}
	other := serve.PartitionRepositoryViews(labeling.NewIndex(testRepo(t, 300, 4)), 3, serve.PartitionClustered)
	if d := ViewDescriptor(other[0], 0, 3, serve.PartitionClustered); d0.Equal(d) {
		t.Error("different repositories compare equal")
	}

	// Same SHAPE, different content: counts and tree IDs agree, so only
	// the repository content hash can tell these apart — and it must.
	shape := func(childType string) *schema.Repository {
		repo := schema.NewRepository()
		b := schema.NewBuilder("t")
		b.TypedElement(b.Root("a"), "b", childType)
		repo.MustAdd(b.MustTree())
		return repo
	}
	dA := ViewDescriptor(serve.PartitionRepositoryViews(labeling.NewIndex(shape("string")), 1, serve.PartitionClustered)[0], 0, 1, serve.PartitionClustered)
	dB := ViewDescriptor(serve.PartitionRepositoryViews(labeling.NewIndex(shape("integer")), 1, serve.PartitionClustered)[0], 0, 1, serve.PartitionClustered)
	if dA.Equal(dB) {
		t.Error("same-shaped repositories with different content compare equal; the content hash is not doing its job")
	}
	if dA.RepoNodes != dB.RepoNodes || len(dA.TreeIDs) != len(dB.TreeIDs) {
		t.Fatal("test premise broken: the two repositories should differ only in content")
	}
}

// TestStagedWireRoundTrip covers the pre-pass payload end to end within
// one process: candidates restricted to a view and the clusters handed to
// it survive encode → JSON → decode exactly (same node objects, same
// order), and so does a full report.
func TestStagedWireRoundTrip(t *testing.T) {
	repo := testRepo(t, 500, 9)
	ix := labeling.NewIndex(repo)
	views := serve.PartitionRepositoryViews(ix, 3, serve.PartitionClustered)
	personal := schema.MustParseSpec("address(name,email)")
	opts := pipeline.DefaultOptions()
	opts.MinSim = 0.35

	cands := matcher.FindCandidates(personal, repo, matcher.NameMatcher{}, matcher.Config{MinSim: opts.MinSim})
	clusters, _, err := pipeline.ComputeClusters(ix, cands, opts)
	if err != nil {
		t.Fatal(err)
	}
	for vi, v := range views {
		restricted := cands.Restrict(v.Contains)
		ws, err := EncodeCandidates(v, restricted)
		if err != nil {
			t.Fatalf("view %d: %v", vi, err)
		}
		raw, _ := json.Marshal(ws)
		var ws2 []WireCandidateSet
		if err := json.Unmarshal(raw, &ws2); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeCandidates(v, personal, ws2)
		if err != nil {
			t.Fatalf("view %d: %v", vi, err)
		}
		if len(got.Sets) != len(restricted.Sets) {
			t.Fatalf("view %d: %d sets, want %d", vi, len(got.Sets), len(restricted.Sets))
		}
		for i := range restricted.Sets {
			a, b := restricted.Sets[i].Elems, got.Sets[i].Elems
			if len(a) != len(b) {
				t.Fatalf("view %d set %d: %d elems, want %d", vi, i, len(b), len(a))
			}
			for j := range a {
				if a[j].Node != b[j].Node || a[j].Sim != b[j].Sim {
					t.Fatalf("view %d set %d elem %d differs", vi, i, j)
				}
			}
		}

		var mine []*cluster.Cluster
		for _, cl := range clusters {
			if cl.Len() > 0 && v.Contains(cl.Elements[0].Node) {
				mine = append(mine, cl)
			}
		}
		wcs, err := EncodeClusters(v, mine)
		if err != nil {
			t.Fatalf("view %d: %v", vi, err)
		}
		raw, _ = json.Marshal(wcs)
		var wcs2 []WireCluster
		if err := json.Unmarshal(raw, &wcs2); err != nil {
			t.Fatal(err)
		}
		gotCls, err := DecodeClusters(v, wcs2)
		if err != nil {
			t.Fatalf("view %d: %v", vi, err)
		}
		if !reflect.DeepEqual(gotCls, mine) && len(mine) > 0 {
			t.Fatalf("view %d: clusters differ after round trip", vi)
		}
	}

	// Report round trip against a view-backed run.
	v := views[0]
	rep, err := viewRunner(v).Run(personal, opts)
	if err != nil {
		t.Fatal(err)
	}
	wr, err := EncodeReport(v, rep)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(wr)
	var wr2 WireReport
	if err := json.Unmarshal(raw, &wr2); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReport(v, wr2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Errorf("report differs after round trip:\n%+v\nwant\n%+v", got, rep)
	}
}
