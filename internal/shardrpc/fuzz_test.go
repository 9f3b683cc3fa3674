package shardrpc

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bellflower/internal/cluster"
	"bellflower/internal/labeling"
	"bellflower/internal/matcher"
	"bellflower/internal/pipeline"
	"bellflower/internal/schema"
	"bellflower/internal/serve"
	"bellflower/internal/trace"
)

// fuzzRepo builds a random repository from a seeded rng: names drawn from
// a small pool so vocabularies overlap and candidate sets are non-trivial.
func fuzzRepo(rng *rand.Rand, maxTrees int) *schema.Repository {
	pool := []string{
		"book", "title", "author", "name", "email", "address", "price",
		"order", "item", "dose", "chart", "ward", "patient", "isbn",
	}
	types := []string{"", "string", "integer", "date"}
	repo := schema.NewRepository()
	for i := 0; i < maxTrees; i++ {
		b := schema.NewBuilder("t")
		nodes := []*schema.Node{b.Root(pool[rng.Intn(len(pool))])}
		extra := rng.Intn(12)
		for j := 0; j < extra; j++ {
			parent := nodes[rng.Intn(len(nodes))]
			name, typ := pool[rng.Intn(len(pool))], types[rng.Intn(len(types))]
			if rng.Intn(5) == 0 {
				b.TypedAttribute(parent, name, typ)
			} else {
				nodes = append(nodes, b.TypedElement(parent, name, typ))
			}
		}
		repo.MustAdd(b.MustTree())
	}
	return repo
}

func fuzzPersonal(rng *rand.Rand, repo *schema.Repository, extra int) *schema.Tree {
	nodes := repo.Nodes()
	name := func() string { return nodes[rng.Intn(len(nodes))].Name }
	b := schema.NewBuilder("personal")
	parents := []*schema.Node{b.Root(name())}
	for i := 0; i < extra; i++ {
		parents = append(parents, b.Element(parents[rng.Intn(len(parents))], name()))
	}
	return b.MustTree()
}

// jsonTrip round-trips v through encoding/json into out (a pointer) — the
// fuzz target exercises the REAL wire, not just the struct translation.
func jsonTrip(t *testing.T, v any, out any) {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
}

// FuzzShardWire asserts decode(encode(x)) == x over the whole shard wire
// vocabulary — descriptors, personal trees, options, projected candidate
// sets, translated clusters and reports — for arbitrary seeded
// repositories, personal schemas, shard counts and clustering variants.
// Node references must come back as the SAME node objects (pointer
// identity): that is what makes a decoded remote report merge exactly
// like an in-process one.
func FuzzShardWire(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(2), uint8(3), uint8(1), false)
	f.Add(int64(2), uint8(12), uint8(4), uint8(2), uint8(2), true)
	f.Add(int64(3), uint8(3), uint8(0), uint8(1), uint8(0), false)
	f.Add(int64(4), uint8(15), uint8(3), uint8(5), uint8(3), true)
	f.Fuzz(func(t *testing.T, seed int64, numTrees, extraNodes, shardCount, variant uint8, clustered bool) {
		rng := rand.New(rand.NewSource(seed))
		repo := fuzzRepo(rng, int(numTrees)%16+1)
		if repo.Len() == 0 {
			return
		}
		personal := fuzzPersonal(rng, repo, int(extraNodes)%6)
		strategy := serve.PartitionBalanced
		if clustered {
			strategy = serve.PartitionClustered
		}
		n := int(shardCount)%8 + 1
		ix := labeling.NewIndex(repo)
		views := serve.PartitionRepositoryViews(ix, n, strategy)

		// Descriptor: survives JSON and stays Equal.
		for i, v := range views {
			d := ViewDescriptor(v, i, len(views), strategy)
			var d2 Descriptor
			jsonTrip(t, d, &d2)
			if !d.Equal(d2) {
				t.Fatalf("descriptor drifted over JSON: %s vs %s", d, d2)
			}
		}

		// Personal tree.
		var wt WireTree
		jsonTrip(t, EncodeTree(personal), &wt)
		decodedPersonal, err := DecodeTree(wt)
		if err != nil {
			t.Fatalf("tree decode: %v", err)
		}
		if decodedPersonal.String() != personal.String() {
			t.Fatalf("tree drifted: %q vs %q", decodedPersonal, personal)
		}
		for i, nOrig := range personal.Nodes() {
			nGot := decodedPersonal.NodeAt(i)
			if nGot.Name != nOrig.Name || nGot.Kind != nOrig.Kind || nGot.Type != nOrig.Type {
				t.Fatalf("tree node %d drifted: %+v vs %+v", i, nGot, nOrig)
			}
		}

		// Options (the fuzz inputs select a variant; signature must hold).
		opts := pipeline.DefaultOptions()
		opts.Variant = pipeline.Variant(int(variant) % 4)
		opts.MinSim = 0.3
		opts.TopN = int(extraNodes) % 5
		if clustered {
			opts.Matcher = matcher.NameMatcher{TokenAware: true}
		}
		wo, err := EncodeOptions(opts)
		if err != nil {
			t.Fatalf("options encode: %v", err)
		}
		var wo2 WireOptions
		jsonTrip(t, wo, &wo2)
		decodedOpts, err := DecodeOptions(wo2)
		if err != nil {
			t.Fatalf("options decode: %v", err)
		}
		if !reflect.DeepEqual(decodedOpts, opts) {
			t.Fatalf("options drifted:\n%+v\nvs\n%+v", decodedOpts, opts)
		}
		if serve.Signature(personal, opts) != serve.Signature(decodedPersonal, decodedOpts) {
			t.Fatal("request signature drifted across the codec")
		}

		// Candidates + clusters per view (the pre-pass payload).
		cands := matcher.FindCandidates(personal, repo, matcher.NameMatcher{}, matcher.Config{MinSim: opts.MinSim})
		clusters, _, err := pipeline.ComputeClusters(ix, cands, opts)
		if err != nil {
			t.Fatalf("clusters: %v", err)
		}
		for _, v := range views {
			restricted := cands.Restrict(v.Contains)
			ws, err := EncodeCandidates(v, restricted)
			if err != nil {
				t.Fatalf("candidates encode: %v", err)
			}
			var ws2 []WireCandidateSet
			jsonTrip(t, ws, &ws2)
			got, err := DecodeCandidates(v, personal, ws2)
			if err != nil {
				t.Fatalf("candidates decode: %v", err)
			}
			for i := range restricted.Sets {
				a, b := restricted.Sets[i].Elems, got.Sets[i].Elems
				if len(a) != len(b) {
					t.Fatalf("set %d: %d elems, want %d", i, len(b), len(a))
				}
				for j := range a {
					if a[j].Node != b[j].Node || a[j].Sim != b[j].Sim {
						t.Fatalf("set %d elem %d: node/sim drifted", i, j)
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
				t.Fatalf("clusters encode: %v", err)
			}
			var wcs2 []WireCluster
			jsonTrip(t, wcs, &wcs2)
			gotCls, err := DecodeClusters(v, wcs2)
			if err != nil {
				t.Fatalf("clusters decode: %v", err)
			}
			if len(gotCls) != len(mine) {
				t.Fatalf("%d clusters, want %d", len(gotCls), len(mine))
			}
			for i, cl := range mine {
				g := gotCls[i]
				if g.ID != cl.ID || g.TreeID != cl.TreeID || g.Medoid != cl.Medoid || len(g.Elements) != len(cl.Elements) {
					t.Fatalf("cluster %d header drifted", i)
				}
				for j := range cl.Elements {
					if g.Elements[j] != cl.Elements[j] {
						t.Fatalf("cluster %d element %d drifted", i, j)
					}
				}
			}
		}

		// Report round trip on the first view.
		v := views[0]
		rep, err := viewRunner(v).Run(personal, opts)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		wr, err := EncodeReport(v, rep)
		if err != nil {
			t.Fatalf("report encode: %v", err)
		}
		var wr2 WireReport
		jsonTrip(t, wr, &wr2)
		got, err := DecodeReport(v, wr2)
		if err != nil {
			t.Fatalf("report decode: %v", err)
		}
		if !reflect.DeepEqual(got, rep) {
			t.Fatalf("report drifted over the wire:\n%+v\nvs\n%+v", got, rep)
		}

		// Binary codec equivalence: a full MatchRequest/MatchResponse must
		// survive the binary transport with exact identity, and decode to
		// the same JSON meaning as the JSON transport — that is what lets a
		// mixed fleet serve byte-identical reports regardless of codec.
		{
			wsV, err := EncodeCandidates(v, cands.Restrict(v.Contains))
			if err != nil {
				t.Fatalf("candidates encode: %v", err)
			}
			var mine []*cluster.Cluster
			for _, cl := range clusters {
				if cl.Len() > 0 && v.Contains(cl.Elements[0].Node) {
					mine = append(mine, cl)
				}
			}
			wcsV, err := EncodeClusters(v, mine)
			if err != nil {
				t.Fatalf("clusters encode: %v", err)
			}
			breq := &MatchRequest{
				Descriptor:    ViewDescriptor(v, 0, len(views), strategy),
				Personal:      EncodeTree(personal),
				Signature:     serve.Signature(personal, opts),
				Options:       wo,
				HasCandidates: true,
				Candidates:    wsV,
				HasClusters:   true,
				Clusters:      wcsV,
				Iterations:    rep.Iterations,
			}
			breq.ProjectionHash = ProjectionDigest(breq)

			bdec, err := DecodeBinaryMatchRequest(EncodeBinaryMatchRequest(breq))
			if err != nil {
				t.Fatalf("binary request decode: %v", err)
			}
			if !reflect.DeepEqual(bdec, breq) {
				t.Fatalf("binary request round trip drifted:\n%+v\nvs\n%+v", bdec, breq)
			}
			var jdec MatchRequest
			jsonTrip(t, breq, &jdec)
			jb, _ := json.Marshal(jdec)
			bb, _ := json.Marshal(bdec)
			if string(jb) != string(bb) {
				t.Fatalf("binary- and JSON-decoded requests disagree:\n%s\nvs\n%s", bb, jb)
			}
			// The content address must survive BOTH transports: the shard
			// recomputes it over whatever codec the request arrived in.
			if d := ProjectionDigest(bdec); d != breq.ProjectionHash {
				t.Fatalf("projection digest drifted over binary: %q vs %q", d, breq.ProjectionHash)
			}
			if d := ProjectionDigest(&jdec); d != breq.ProjectionHash {
				t.Fatalf("projection digest drifted over JSON: %q vs %q", d, breq.ProjectionHash)
			}

			bresp := &MatchResponse{Report: wr}
			brdec, err := DecodeBinaryMatchResponse(EncodeBinaryMatchResponse(bresp))
			if err != nil {
				t.Fatalf("binary response decode: %v", err)
			}
			if !reflect.DeepEqual(brdec, bresp) {
				t.Fatalf("binary response round trip drifted")
			}
			gotB, err := DecodeReport(v, brdec.Report)
			if err != nil {
				t.Fatalf("report decode after binary: %v", err)
			}
			if !reflect.DeepEqual(gotB, rep) {
				t.Fatalf("report drifted over the binary wire:\n%+v\nvs\n%+v", gotB, rep)
			}
		}

		// Trace wire vocabulary: the X-Bellflower-Trace header and the span
		// codec must round-trip exactly — that is what makes a distributed
		// request stitch into one tree.
		tctx, ftr, froot := trace.New(context.Background(), "fuzz.trace")
		hv := trace.HeaderValue(tctx)
		tid, hparent, err := trace.ParseHeader(hv)
		if err != nil {
			t.Fatalf("header %q failed to parse: %v", hv, err)
		}
		ftid := ftr.Summarize().TraceID
		if tid.String() != ftid || hparent != froot.ID {
			t.Fatalf("header drifted: %q decoded to (%s,%s), want (%s,%s)",
				hv, tid, hparent, ftid, froot.ID)
		}
		sctx, str, sroot := trace.Resume(context.Background(), hv, "shard.serve")
		if got := str.Summarize().TraceID; got != ftid {
			t.Fatalf("resumed trace id %s, want the sender's %s", got, ftid)
		}
		if sroot.Parent != froot.ID {
			t.Fatalf("resumed root parented to %s, want the sender's span %s", sroot.Parent, froot.ID)
		}
		for i := 0; i < int(extraNodes)%5+1; i++ {
			_, sp := trace.StartSpan(sctx, fmt.Sprintf("stage.%d", i))
			sp.SetAttrInt("i", int64(i))
			if rng.Intn(2) == 0 {
				sp.SetAttr("seed", fmt.Sprint(seed))
			}
			sp.End()
		}
		sroot.End()
		spans := str.Spans()
		var wspans []WireSpan
		jsonTrip(t, EncodeSpans(spans), &wspans)
		decodedSpans, err := DecodeSpans(wspans)
		if err != nil {
			t.Fatalf("span decode: %v", err)
		}
		if len(decodedSpans) != len(spans) {
			t.Fatalf("%d spans after round trip, want %d", len(decodedSpans), len(spans))
		}
		for i, orig := range spans {
			dec := decodedSpans[i]
			if dec.ID != orig.ID || dec.Parent != orig.Parent || dec.Name != orig.Name {
				t.Fatalf("span %d identity drifted: %+v vs %+v", i, dec, orig)
			}
			if dec.Start.UnixNano() != orig.Start.UnixNano() || dec.Duration != orig.Duration {
				t.Fatalf("span %d timing drifted", i)
			}
			if !reflect.DeepEqual(dec.Attrs, orig.Attrs) {
				t.Fatalf("span %d attrs drifted: %v vs %v", i, dec.Attrs, orig.Attrs)
			}
		}
		// A resume from garbage must degrade to a fresh trace, never fail.
		_, gtr, groot := trace.Resume(context.Background(), fmt.Sprintf("%x", seed), "shard.serve")
		if gtr == nil || groot.Parent != 0 {
			t.Fatal("malformed header did not degrade to a fresh root trace")
		}
		groot.End()
	})
}
